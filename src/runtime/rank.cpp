#include "runtime/rank.hpp"

#include <algorithm>

namespace cpart {

void Rank::begin_step() {
  ghosts.clear();
  local_faces.clear();
  events.clear();
}

void Rank::merge_faces(std::span<const idx_t> owned,
                       std::span<const FaceShipMsg> received) {
  local_faces.clear();
  local_faces.reserve(owned.size() + received.size());
  local_faces.insert(local_faces.end(), owned.begin(), owned.end());
  for (const FaceShipMsg& m : received) local_faces.push_back(m.face);
  // A face reaches a rank at most once (the sender's candidate query is
  // deduplicated and excludes the owner), so this is a plain sort of a
  // duplicate-free union: the result is the globally ascending face order
  // the centralized loop produces.
  std::sort(local_faces.begin(), local_faces.end());
}

}  // namespace cpart
