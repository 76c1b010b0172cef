/**
 * @file
 * The real rows of a neighbor list without its padding, for tests that
 * compare lists built at different pad widths.
 */

#ifndef MDBENCH_TESTS_PLAIN_ROWS_H
#define MDBENCH_TESTS_PLAIN_ROWS_H

#include <cstdint>
#include <utility>
#include <vector>

#include "md/neighbor.h"

namespace mdbench {

/** Row starts and ids of an unpadded CSR with the rows of @p list. */
using PlainRows =
    std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>;

/** @p list's range(i) rows laid end to end, as a width-0 build has them. */
inline PlainRows
plainRows(const NeighborList &list)
{
    PlainRows rows;
    rows.first.push_back(0);
    for (std::size_t i = 0; i < list.counts.size(); ++i) {
        const auto [begin, end] = list.range(i);
        rows.second.insert(rows.second.end(), list.neighbors.begin() + begin,
                           list.neighbors.begin() + end);
        rows.first.push_back(static_cast<std::uint32_t>(rows.second.size()));
    }
    return rows;
}

} // namespace mdbench

#endif // MDBENCH_TESTS_PLAIN_ROWS_H
