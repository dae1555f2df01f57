#include "spatial/serialization.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/codec.h"

namespace privtree {
namespace {

TEST(SpatialTreeBodyTest, ForwardParentReferenceIsRejected) {
  // Node 1 names node 5 — a parent that does not exist yet.
  std::string bytes;
  ByteWriter w(&bytes);
  w.U64(2);
  w.Str(PackDeltaI32(std::vector<std::int32_t>{-1, 5}));
  WriteBox(w, Box::UnitCube(1));
  ByteReader r(bytes);
  std::vector<NodeId> parents;
  std::vector<double> bounds, counts;
  const Status s = ReadTreeBodyCompressed(r, 1, &parents, &bounds, &counts);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("bad parent"), std::string::npos) << s.ToString();
}

}  // namespace
}  // namespace privtree
