#include "util/precision.h"

#include "util/error.h"

namespace mdbench {

const char *
precisionName(Precision precision)
{
    switch (precision) {
      case Precision::Mixed:  return "mixed";
      case Precision::Single: return "single";
      case Precision::Double: return "double";
      default: panic("invalid Precision");
    }
}

} // namespace mdbench
