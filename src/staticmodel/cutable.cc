#include "staticmodel/cutable.hh"

#include <algorithm>

namespace goat::staticmodel {

void
CuTable::add(const Cu &cu)
{
    auto it = std::lower_bound(cus_.begin(), cus_.end(), cu);
    if (it != cus_.end() && *it == cu)
        return;
    cus_.insert(it, cu);
}

void
CuTable::merge(const CuTable &other)
{
    for (const auto &cu : other.cus_)
        add(cu);
}

const Cu *
CuTable::find(const SourceLoc &loc) const
{
    for (const auto &cu : cus_)
        if (cu.loc == loc)
            return &cu;
    return nullptr;
}

std::vector<const Cu *>
CuTable::findAll(const SourceLoc &loc) const
{
    std::vector<const Cu *> out;
    for (const auto &cu : cus_)
        if (cu.loc == loc)
            out.push_back(&cu);
    return out;
}

std::string
CuTable::str() const
{
    std::string out;
    for (const auto &cu : cus_) {
        out += cu.str();
        out += '\n';
    }
    return out;
}

} // namespace goat::staticmodel
