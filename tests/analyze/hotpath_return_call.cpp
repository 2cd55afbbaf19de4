// ANALYZE-EXPECT: hotpath-alloc
// ANALYZE-PATH: src/fixtures/hotpath_return_call.cpp
//
// The hot root's only call is the operand of `return`.  An identifier
// before a call usually means a declaration (`Type name(...)`), but
// `return` is a keyword, so the walk must still follow the call into the
// helper that grows a vector.
#include <vector>

#include "common/contracts.hpp"

namespace rfipad {

std::vector<int> g_log;

bool record(int v) {
  g_log.push_back(v);
  return true;
}

RFIPAD_HOT_PATH bool ingest(int v) { return record(v); }

}  // namespace rfipad
