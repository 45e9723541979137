/**
 * @file
 * Unit tests for support utilities: gcd/lcm, floor_mod, and the
 * modular-congruence algebra underpinning affine staticization.
 */

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/mathutil.hpp"

namespace raw {
namespace {

TEST(MathUtil, Gcd)
{
    EXPECT_EQ(gcd64(12, 18), 6);
    EXPECT_EQ(gcd64(17, 32), 1);
    EXPECT_EQ(gcd64(0, 5), 5);
    EXPECT_EQ(gcd64(5, 0), 5);
    EXPECT_EQ(gcd64(-12, 18), 6);
    EXPECT_EQ(gcd64(12, -18), 6);
    EXPECT_EQ(gcd64(0, 0), 0);
}

TEST(MathUtil, Lcm)
{
    EXPECT_EQ(lcm64(4, 6), 12);
    EXPECT_EQ(lcm64(1, 32), 32);
    EXPECT_EQ(lcm64(0, 7), 0);
    EXPECT_EQ(lcm64(8, 12, 16), 16) << "saturates at cap";
    EXPECT_EQ(lcm64(8, 12, 0), 24) << "no cap";
}

TEST(MathUtil, FloorMod)
{
    EXPECT_EQ(floor_mod(7, 4), 3);
    EXPECT_EQ(floor_mod(-1, 4), 3);
    EXPECT_EQ(floor_mod(-8, 4), 0);
    EXPECT_EQ(floor_mod(0, 4), 0);
}

TEST(Congruence, Construction)
{
    EXPECT_TRUE(Congruence::exact(5).is_exact());
    EXPECT_TRUE(Congruence::top().is_top());
    Congruence c = Congruence::mod(-3, 8);
    EXPECT_EQ(c.residue, 5);
    EXPECT_EQ(c.modulus, 8);
    EXPECT_TRUE(Congruence::mod(3, 1).is_top());
    EXPECT_TRUE(Congruence::mod(3, 0).is_exact());
}

TEST(Congruence, Add)
{
    Congruence a = Congruence::mod(1, 8);
    Congruence b = Congruence::mod(2, 4);
    Congruence s = a + b;
    EXPECT_EQ(s.modulus, 4);
    EXPECT_EQ(s.residue, 3);
    EXPECT_EQ((Congruence::exact(3) + Congruence::exact(4)).residue, 7);
    EXPECT_TRUE((a + Congruence::top()).is_top());
}

TEST(Congruence, MulByConstant)
{
    // x == 0 (mod 2), 16*x == 0 (mod 32).
    Congruence x = Congruence::mod(0, 2);
    Congruence r = Congruence::exact(16) * x;
    EXPECT_EQ(r.residue_mod(32), 0);
    // top * 32 == 0 (mod 32): multiples of 32.
    Congruence t = Congruence::top() * Congruence::exact(32);
    EXPECT_EQ(t.residue_mod(32), 0);
    EXPECT_EQ(t.residue_mod(16), 0);
    EXPECT_EQ(t.residue_mod(64), -1);
}

TEST(Congruence, ResidueMod)
{
    EXPECT_EQ(Congruence::exact(37).residue_mod(8), 5);
    EXPECT_EQ(Congruence::exact(-3).residue_mod(8), 5);
    EXPECT_EQ(Congruence::mod(5, 16).residue_mod(8), 5);
    EXPECT_EQ(Congruence::mod(5, 16).residue_mod(32), -1);
    EXPECT_EQ(Congruence::top().residue_mod(4), -1);
    // Everything is known modulo 1 (one-tile machines).
    EXPECT_EQ(Congruence::top().residue_mod(1), 0);
}

/** Property sweep: algebra consistent with integer arithmetic. */
class CongruenceProperty : public ::testing::TestWithParam<int>
{};

TEST_P(CongruenceProperty, SoundUnderSampling)
{
    int seed = GetParam();
    uint64_t s = static_cast<uint64_t>(seed) * 2654435761u + 1;
    auto rnd = [&] {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    };
    int64_t m1 = 1 + static_cast<int64_t>(rnd() % 16);
    int64_t m2 = 1 + static_cast<int64_t>(rnd() % 16);
    int64_t r1 = static_cast<int64_t>(rnd() % m1);
    int64_t r2 = static_cast<int64_t>(rnd() % m2);
    Congruence a = Congruence::mod(r1, m1);
    Congruence b = Congruence::mod(r2, m2);
    // For all representatives x == r1 (mod m1), y == r2 (mod m2),
    // the claimed congruences for x+y, x-y, x*y must hold.
    for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 4; j++) {
            int64_t x = r1 + i * m1;
            int64_t y = r2 + j * m2;
            Congruence sum = a + b;
            Congruence dif = a - b;
            Congruence prod = a * b;
            if (!sum.is_top()) {
                EXPECT_EQ(floor_mod(x + y, sum.modulus == 0
                                               ? INT64_MAX
                                               : sum.modulus),
                          sum.modulus == 0
                              ? x + y
                              : floor_mod(sum.residue, sum.modulus));
            }
            if (!dif.is_top() && dif.modulus != 0) {
                EXPECT_EQ(floor_mod(x - y, dif.modulus),
                          floor_mod(dif.residue, dif.modulus));
            }
            if (!prod.is_top() && prod.modulus != 0) {
                EXPECT_EQ(floor_mod(x * y, prod.modulus),
                          floor_mod(prod.residue, prod.modulus));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CongruenceProperty,
                         ::testing::Range(1, 40));

TEST(Error, FatalAndPanic)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    EXPECT_THROW(panic("bug"), PanicError);
    EXPECT_NO_THROW(check(true, "fine"));
    EXPECT_THROW(check(false, "bad"), PanicError);
}

} // namespace
} // namespace raw
