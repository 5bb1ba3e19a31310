// DenseMap / DenseSet: the open-addressing containers that hold hot
// per-node state in the sharded 100k-node testbed.
#include <gtest/gtest.h>

#include <string>

#include "common/densemap.hpp"
#include "common/ids.hpp"

namespace whisper {
namespace {

TEST(DenseMap, InsertFindErase) {
  DenseMap<std::uint64_t, std::string> m;
  EXPECT_TRUE(m.empty());
  m[1] = "one";
  m.insert_or_assign(2, "two");
  auto [it, fresh] = m.try_emplace(3, "three");
  EXPECT_TRUE(fresh);
  EXPECT_EQ(it->second, "three");
  EXPECT_FALSE(m.try_emplace(3, "again").second);
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.find(2), m.end());
  EXPECT_EQ(m.find(2)->second, "two");
  EXPECT_TRUE(m.contains(1));
  EXPECT_EQ(m.erase(2), 1u);
  EXPECT_EQ(m.erase(2), 0u);
  EXPECT_FALSE(m.contains(2));
  EXPECT_EQ(m.size(), 2u);
}

TEST(DenseMap, GrowsThroughRehash) {
  DenseMap<std::uint32_t, std::uint32_t> m;
  for (std::uint32_t i = 0; i < 5000; ++i) m[i] = i * 3;
  EXPECT_EQ(m.size(), 5000u);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(m.contains(i));
    EXPECT_EQ(m.find(i)->second, i * 3);
  }
  for (std::uint32_t i = 0; i < 5000; i += 2) m.erase(i);
  EXPECT_EQ(m.size(), 2500u);
  for (std::uint32_t i = 1; i < 5000; i += 2) ASSERT_EQ(m.find(i)->second, i * 3);
  // Churn over tombstones: reinsert the erased half.
  for (std::uint32_t i = 0; i < 5000; i += 2) m[i] = i;
  EXPECT_EQ(m.size(), 5000u);
  EXPECT_EQ(m.find(4998)->second, 4998u);
}

TEST(DenseMap, SweepEraseIdiom) {
  DenseMap<int, int> m;
  for (int i = 0; i < 100; ++i) m[i] = i;
  for (auto it = m.begin(); it != m.end();) {
    if (it->second % 3 == 0) {
      it = m.erase(it);  // swap-remove: revisit the same position
    } else {
      ++it;
    }
  }
  EXPECT_EQ(m.size(), 66u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(m.contains(i), i % 3 != 0) << i;
  }
}

TEST(DenseMap, EndpointKeys) {
  DenseMap<Endpoint, int> m;
  const Endpoint a{0x0a000001, 5000};
  const Endpoint b{0x0a000002, 5000};
  m[a] = 1;
  m[b] = 2;
  EXPECT_EQ(m.find(a)->second, 1);
  EXPECT_EQ(m.find(b)->second, 2);
  m.erase(a);
  EXPECT_FALSE(m.contains(a));
  EXPECT_TRUE(m.contains(b));
}

TEST(DenseSet, BasicOps) {
  DenseSet<NodeId> s;
  EXPECT_TRUE(s.insert(NodeId{1}));
  EXPECT_FALSE(s.insert(NodeId{1}));
  EXPECT_TRUE(s.insert(NodeId{2}));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(NodeId{1}));
  EXPECT_EQ(s.erase(NodeId{1}), 1u);
  EXPECT_FALSE(s.contains(NodeId{1}));
}

}  // namespace
}  // namespace whisper
