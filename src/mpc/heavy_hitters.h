#ifndef LAMP_MPC_HEAVY_HITTERS_H_
#define LAMP_MPC_HEAVY_HITTERS_H_

#include <cstddef>
#include <map>
#include <set>

#include "relational/instance.h"

/// \file
/// Heavy hitters (Section 3 of the paper): "skewed values whose frequency
/// is much higher than some predefined threshold". The skew-aware
/// algorithms (SharesSkew, the BKS multi-round triangle) first classify
/// values by their frequency in a join column and then treat heavy values
/// with dedicated residual plans.

namespace lamp {

/// Frequency of every value in column \p column of relation \p relation.
std::map<Value, std::size_t> ColumnFrequencies(const Instance& instance,
                                               RelationId relation,
                                               std::size_t column);

/// Values whose frequency in the given column strictly exceeds
/// \p threshold: the heavy keys of ColumnFrequencies, counted over a
/// sorted copy of the column instead of a map of every value.
std::set<Value> HeavyHitters(const Instance& instance, RelationId relation,
                             std::size_t column, std::size_t threshold);

/// Values heavy in either of two columns (e.g. the join value y of the
/// triangle, heavy in R's second or S's first column).
std::set<Value> JoinHeavyHitters(const Instance& instance, RelationId left,
                                 std::size_t left_column, RelationId right,
                                 std::size_t right_column,
                                 std::size_t threshold);

}  // namespace lamp

#endif  // LAMP_MPC_HEAVY_HITTERS_H_
