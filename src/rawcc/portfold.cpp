#include "rawcc/portfold.hpp"

#include <vector>

#include "ir/eval.hpp"

#include "support/epoch_marks.hpp"
#include "support/error.hpp"

namespace raw {

namespace {

/** May this opcode consume a port word as a source operand? */
bool
can_take_port_src(Op op)
{
    if (op == Op::kPrint)
        return true;
    if (op == Op::kStore)
        return true; // value operand only
    uint32_t dummy;
    return eval_op(op, 0, 0, dummy) || op == Op::kMove;
}

/** May this opcode's result go straight to the output port?
 *  Restricted to single-cycle producers so the latency model stays
 *  sound (the port has no scoreboard). */
bool
can_put_port_dst(Op op)
{
    switch (op) {
      case Op::kConst:
      case Op::kMove:
      case Op::kAdd:
      case Op::kSub:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor:
      case Op::kShl:
      case Op::kShr:
      case Op::kNeg:
      case Op::kNot:
      case Op::kCmpEq:
      case Op::kCmpNe:
      case Op::kCmpLt:
      case Op::kCmpLe:
      case Op::kCmpGt:
      case Op::kCmpGe:
        return true;
      default:
        return false;
    }
}

/** Use counts within one stream, trusted only where seen is marked. */
struct UseTable
{
    EpochMarks seen;
    std::vector<int> count;
};

int
fold_block(std::vector<VInstr> &code, const Function &fn, UseTable &uses)
{
    if (code.empty())
        return 0;
    // Use counts of every value within this stream.
    uses.seen.next_epoch();
    for (const VInstr &in : code)
        for (ValueId s : in.src)
            if (s >= 0) {
                if (uses.seen.mark(s))
                    uses.count[s] = 0;
                uses.count[s]++;
            }
    auto use_count = [&](ValueId v) {
        return uses.seen.marked(v) ? uses.count[v] : 0;
    };

    // Compact in place: the write index w never passes the read
    // index k, and each step reads code[k] (and code[k + 1]) before
    // it writes code[w].
    int folded = 0;
    size_t w = 0;
    size_t k = 0;
    while (k < code.size()) {
        const VInstr &cur = code[k];

        // RECV t ; op ..., t, ...   ->   op ..., <port>, ...
        if (cur.op == Op::kRecv && k + 1 < code.size() &&
            cur.dst >= 0 && !fn.values[cur.dst].is_var &&
            use_count(cur.dst) == 1) {
            VInstr next = code[k + 1];
            bool next_has_port = next.src[0] == kPortOperand ||
                                 next.src[1] == kPortOperand;
            int slot = -1;
            if (next.src[0] == cur.dst && next.src[1] != cur.dst)
                slot = 0;
            else if (next.src[1] == cur.dst &&
                     next.src[0] != cur.dst)
                slot = 1;
            // Store addresses must stay in registers (the home-tile
            // assertion reads them), so only the value operand folds.
            bool slot_ok =
                next.op != Op::kStore || slot == 1;
            if (slot >= 0 && slot_ok && !next_has_port &&
                can_take_port_src(next.op)) {
                next.src[slot] = kPortOperand;
                code[w++] = next;
                folded++;
                k += 2;
                continue;
            }
        }

        // op t, ... ; SEND t   ->   op <port>, ...
        if (k + 1 < code.size() && cur.dst >= 0 &&
            !fn.values[cur.dst].is_var && use_count(cur.dst) == 1 &&
            can_put_port_dst(cur.op) &&
            cur.src[0] != kPortOperand &&
            cur.src[1] != kPortOperand) {
            const VInstr &next = code[k + 1];
            if (next.op == Op::kSend && next.src[0] == cur.dst) {
                VInstr prod = cur;
                prod.dst = kPortOperand;
                code[w++] = prod;
                folded++;
                k += 2;
                continue;
            }
        }

        if (w != k)
            code[w] = cur;
        w++;
        k++;
    }
    code.resize(w);
    return folded;
}

} // namespace

int
fold_port_operands(VirtualProgram &vp, const Function &fn)
{
    UseTable uses;
    uses.seen.resize(fn.values.size());
    uses.count.resize(fn.values.size());
    int folded = 0;
    for (auto &tile : vp.tiles)
        for (auto &block : tile)
            folded += fold_block(block, fn, uses);
    return folded;
}

} // namespace raw
