//===- core/Schedule.cpp - Iteration execution orders ----------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Schedule.h"

#include <set>

using namespace dra;

ScheduleLocality Schedule::locality(const TileAccessTable &Table,
                                    const DiskLayout &Layout) const {
  ScheduleLocality L;
  std::set<unsigned> Seen;
  int LastDisk = -1;
  for (GlobalIter G : Order) {
    std::span<const TileAccess> Touched = Table.row(G);
    if (Touched.empty())
      continue;
    unsigned D = Layout.primaryDiskOfTile(Touched.front().Tile);
    Seen.insert(D);
    if (int(D) != LastDisk) {
      if (LastDisk >= 0)
        ++L.DiskSwitches;
      ++L.DiskVisits;
      LastDisk = int(D);
    }
  }
  L.DisksUsed = unsigned(Seen.size());
  return L;
}
