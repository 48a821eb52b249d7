#pragma once

namespace fix {
// lad-lint: allow(dead-public) -- deliberate API awaiting its first caller
struct SpareApi {
  int v = 0;
};
}  // namespace fix
