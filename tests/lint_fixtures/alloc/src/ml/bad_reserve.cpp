// Fixture: exact-growth reserves inside loops (R9) reallocate and copy
// the whole container every iteration.
#include <cstddef>
#include <vector>

struct Pool {
  std::vector<int> items;
};

void bad(std::vector<int>& out, Pool* pool, std::vector<int>* spill,
         const std::vector<std::vector<int>>& parts) {
  for (const std::vector<int>& part : parts) {
    out.reserve(out.size() + part.size());
    out.insert(out.end(), part.begin(), part.end());
    pool->items.reserve(part.size() + pool->items.size());
    spill->reserve(spill->size() + 1);
  }
  std::size_t i = 0;
  while (i++ < parts.size()) out.reserve(out.size() + 1);
}

void good(std::vector<int>& out, const std::vector<std::vector<int>>& parts) {
  std::size_t total = 0;
  for (const std::vector<int>& part : parts) total += part.size();
  out.reserve(out.size() + total);  // once, before the loop
  std::vector<int> other;
  for (const std::vector<int>& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
    other.reserve(part.size());  // not grown from its own size
  }
}
