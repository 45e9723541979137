#include "sim/isa.hpp"

#include "support/error.hpp"

namespace raw {

void
subscript_out_of_range(const ArrayLayout &al, int64_t index)
{
    fatal("subscript " + std::to_string(index) + " out of range for '" +
          al.name + "' (extent " + std::to_string(al.size) + ")");
}

int
CompiledProgram::find_array(const std::string &name) const
{
    for (size_t i = 0; i < arrays.size(); i++)
        if (arrays[i].name == name)
            return static_cast<int>(i);
    return -1;
}

int64_t
CompiledProgram::static_instrs() const
{
    int64_t n = 0;
    for (const TileProgram &t : tiles)
        n += static_cast<int64_t>(t.code.size());
    for (const SwitchProgram &s : switches)
        n += static_cast<int64_t>(s.code.size());
    return n;
}

} // namespace raw
