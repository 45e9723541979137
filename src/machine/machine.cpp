#include "machine/machine.hpp"

namespace raw {

const char *
dir_name(Dir d)
{
    switch (d) {
      case Dir::kNorth: return "N";
      case Dir::kEast:  return "E";
      case Dir::kSouth: return "S";
      case Dir::kWest:  return "W";
      case Dir::kProc:  return "P";
    }
    return "?";
}

Dir
opposite(Dir d)
{
    switch (d) {
      case Dir::kNorth: return Dir::kSouth;
      case Dir::kEast:  return Dir::kWest;
      case Dir::kSouth: return Dir::kNorth;
      case Dir::kWest:  return Dir::kEast;
      case Dir::kProc:  return Dir::kProc;
    }
    return Dir::kProc;
}

int
MachineConfig::latency(FuOp op) const
{
    if (unit_latency)
        return 1;
    switch (op) {
      case FuOp::kIntAdd: return 1;
      case FuOp::kIntMul: return 12;
      case FuOp::kIntDiv: return 35;
      case FuOp::kFpAdd:  return 2;
      case FuOp::kFpMul:  return 4;
      case FuOp::kFpDiv:  return 12;
      case FuOp::kLoad:   return 2;
      case FuOp::kStore:  return 1;
      case FuOp::kBranch: return 1;
    }
    return 1;
}

int
MachineConfig::distance(int a, int b) const
{
    int dr = row_of(a) - row_of(b);
    int dc = col_of(a) - col_of(b);
    return (dr < 0 ? -dr : dr) + (dc < 0 ? -dc : dc);
}

Dir
MachineConfig::next_hop(int from, int to) const
{
    if (from == to)
        return Dir::kProc;
    int fc = col_of(from), tc = col_of(to);
    if (fc < tc)
        return Dir::kEast;
    if (fc > tc)
        return Dir::kWest;
    int fr = row_of(from), tr = row_of(to);
    if (fr < tr)
        return Dir::kSouth;
    return Dir::kNorth;
}

int
MachineConfig::neighbor(int tile, Dir d) const
{
    int r = row_of(tile), c = col_of(tile);
    switch (d) {
      case Dir::kNorth: r--; break;
      case Dir::kSouth: r++; break;
      case Dir::kEast:  c++; break;
      case Dir::kWest:  c--; break;
      case Dir::kProc:  return tile;
    }
    if (r < 0 || r >= rows || c < 0 || c >= cols)
        return -1;
    return tile_at(r, c);
}

void
MachineConfig::validate() const
{
    check(n_tiles >= 1, "machine must have at least one tile");
    // Dynamic-network message headers carry the home/origin tile in a
    // 10-bit field (see dyn_header), so the mesh cannot address more
    // than 1024 tiles; the scaling study tops out at 128.
    check(n_tiles <= 1024, "machine exceeds 1024 addressable tiles");
    check(rows * cols == n_tiles, "mesh shape does not match tile count");
    check(num_registers >= 8, "too few registers");
    check(num_switch_registers >= 1, "too few switch registers");
}

std::string
MachineConfig::name() const
{
    std::string s = std::to_string(rows) + "x" + std::to_string(cols);
    if (unit_latency)
        s += " 1-cycle";
    else if (num_registers > 1024)
        s += " inf-reg";
    else
        s += " base";
    return s;
}

void
mesh_shape(int n_tiles, int &rows, int &cols)
{
    rows = 1;
    while ((rows * 2) * (rows * 2) <= n_tiles)
        rows *= 2;
    // rows is the largest power of two with rows^2 <= n; cols = n / rows.
    while (n_tiles % rows != 0)
        rows--;
    cols = n_tiles / rows;
    if (rows > cols) {
        int t = rows;
        rows = cols;
        cols = t;
    }
}

MachineConfig
MachineConfig::base(int n)
{
    MachineConfig m;
    m.n_tiles = n;
    mesh_shape(n, m.rows, m.cols);
    m.validate();
    return m;
}

MachineConfig
MachineConfig::inf_reg(int n)
{
    MachineConfig m = base(n);
    m.num_registers = 1 << 20;
    return m;
}

MachineConfig
MachineConfig::one_cycle(int n)
{
    MachineConfig m = base(n);
    m.unit_latency = true;
    return m;
}

} // namespace raw
