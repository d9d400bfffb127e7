#include "kernel/address_space.hpp"

#include <gtest/gtest.h>

namespace tp::kernel {
namespace {

// Hands out consecutive frames from `base`, at most `max_frames`,
// counting them in `*allocated`.
class CountingSource final : public FrameSource {
 public:
  CountingSource(hw::PAddr base, std::size_t max_frames, std::size_t* allocated)
      : base_(base), max_frames_(max_frames), allocated_(allocated) {}

  std::optional<hw::PAddr> TakeTableFrame(std::uint64_t /*key*/) override {
    if (*allocated_ >= max_frames_) {
      return std::nullopt;
    }
    return base_ + (*allocated_)++ * hw::kPageSize;
  }
  FrameAllocator allocator() { return FrameAllocator{this, 0}; }

 private:
  hw::PAddr base_;
  std::size_t max_frames_;
  std::size_t* allocated_;
};

TEST(AddressSpace, MapTranslateUnmap) {
  std::size_t allocated = 0;
  CountingSource source(0x200000, 8, &allocated);
  AddressSpace as(1, 0x100000, source.allocator());
  EXPECT_FALSE(as.Translate(0x5000).has_value());
  ASSERT_TRUE(as.Map(0x5000, 0x42000));
  auto tr = as.Translate(0x5123);
  ASSERT_TRUE(tr.has_value());
  EXPECT_EQ(tr->paddr, 0x42000u);
  as.Unmap(0x5000);
  EXPECT_FALSE(as.Translate(0x5000).has_value());
}

TEST(AddressSpace, InteriorTablesComeFromAllocator) {
  std::size_t allocated = 0;
  CountingSource source(0x200000, 8, &allocated);
  AddressSpace as(1, 0x100000, source.allocator());
  as.Map(0x5000, 0x42000);
  EXPECT_EQ(allocated, 1u);
  // Same top-level region: no new table.
  as.Map(0x6000, 0x43000);
  EXPECT_EQ(allocated, 1u);
  // A distant region needs a new leaf table.
  as.Map(0x5000 + (std::uint64_t{512} << 12), 0x44000);
  EXPECT_EQ(allocated, 2u);
}

TEST(AddressSpace, MapFailsWhenAllocatorExhausted) {
  std::size_t allocated = 0;
  CountingSource source(0x200000, 0, &allocated);
  AddressSpace as(1, 0x100000, source.allocator());
  EXPECT_FALSE(as.Map(0x5000, 0x42000));
}

TEST(AddressSpace, WalkPathIsDeterministicAndInTableFrames) {
  std::size_t allocated = 0;
  CountingSource source(0x200000, 8, &allocated);
  AddressSpace as(1, 0x100000, source.allocator());
  as.Map(0x5000, 0x42000);
  std::vector<hw::PAddr> a;
  std::vector<hw::PAddr> b;
  as.WalkPath(0x5000, a);
  as.WalkPath(0x5000, b);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(hw::PageAlignDown(a[0]), 0x100000u) << "first walk step reads the root";
  EXPECT_EQ(hw::PageAlignDown(a[1]), 0x200000u) << "second step reads the leaf table";
}

TEST(AddressSpace, KernelWindowDirectMaps) {
  AddressSpace win = AddressSpace::KernelWindow(7, {0x300000, 0x301000});
  auto tr = win.Translate(hw::KernelVaddrFor(0x1234000));
  ASSERT_TRUE(tr.has_value());
  EXPECT_EQ(tr->paddr, 0x1234000u);
  EXPECT_FALSE(win.Translate(0x1000).has_value()) << "user addresses fault in the window";
  EXPECT_EQ(win.asid(), 7);
}

TEST(AddressSpace, KernelWindowWalksItsOwnPtFrames) {
  AddressSpace win = AddressSpace::KernelWindow(7, {0x300000, 0x301000});
  std::vector<hw::PAddr> path;
  win.WalkPath(hw::KernelVaddrFor(0x1234000), path);
  ASSERT_EQ(path.size(), 2u);
  for (hw::PAddr pte : path) {
    hw::PAddr page = hw::PageAlignDown(pte);
    EXPECT_TRUE(page == 0x300000 || page == 0x301000)
        << "PT entries must live in the image's own (coloured) frames";
  }
}

TEST(AddressSpace, GlobalFlagStored) {
  std::size_t allocated = 0;
  CountingSource source(0x200000, 8, &allocated);
  AddressSpace as(1, 0x100000, source.allocator());
  as.Map(0x5000, 0x42000, /*global=*/true);
  auto tr = as.Translate(0x5000);
  ASSERT_TRUE(tr.has_value());
  EXPECT_TRUE(tr->global);
}

TEST(AddressSpace, RemapReplacesFrame) {
  std::size_t allocated = 0;
  CountingSource source(0x200000, 8, &allocated);
  AddressSpace as(1, 0x100000, source.allocator());
  as.Map(0x5000, 0x42000);
  as.Map(0x5000, 0x99000);
  EXPECT_EQ(as.Translate(0x5000)->paddr, 0x99000u);
}

TEST(AddressSpace, MappedPagesCount) {
  std::size_t allocated = 0;
  CountingSource source(0x200000, 8, &allocated);
  AddressSpace as(1, 0x100000, source.allocator());
  for (int i = 0; i < 5; ++i) {
    as.Map(0x5000 + i * hw::kPageSize, 0x42000 + i * hw::kPageSize);
  }
  EXPECT_EQ(as.MappedPages(), 5u);
}

}  // namespace
}  // namespace tp::kernel
