/**
 * @file
 * Neighbor-list packing layout. Padded CSR (DESIGN.md §12) is the only
 * packing; DESIGN.md §14 records why there is no cluster-pair layout.
 */

#ifndef MDBENCH_UTIL_NEIGH_LAYOUT_H
#define MDBENCH_UTIL_NEIGH_LAYOUT_H

namespace mdbench {

// Kept only so benchmark stamps can still name the layout ("csr").
enum class NeighLayout { Csr };

/** The active layout: always padded CSR. */
constexpr NeighLayout neighLayout() { return NeighLayout::Csr; }

/** Lowercase layout name. */
constexpr const char *neighLayoutName(NeighLayout) { return "csr"; }

} // namespace mdbench

#endif // MDBENCH_UTIL_NEIGH_LAYOUT_H
