#include "stream_matrix.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "simd/simd.h"
#include "sng.h"

namespace aqfpsc::sc {

StreamMatrix::StreamMatrix(std::size_t rows, std::size_t len)
    : rows_(rows), len_(len), wpr_((len + 63) / 64),
      words_(rows * ((len + 63) / 64), 0)
{
}

void
StreamMatrix::reset(std::size_t rows, std::size_t len)
{
    rows_ = rows;
    len_ = len;
    wpr_ = (len + 63) / 64;
    // resize() keeps capacity, so repeated reuse at or below the
    // high-water size allocates nothing.
    words_.resize(rows_ * wpr_);
}

void
StreamMatrix::fillBipolar(std::size_t r, double value, int bits,
                          RandomSource &rng)
{
    assert(r < rows_);
    const std::uint32_t code = quantizeBipolar(value, bits);
    // bit = (rng.nextBits(bits) < code) with nextBits(b) = word >> (64-b);
    // floor(x / 2^s) < code  <=>  x < code << s, so one full-width compare
    // per RNG word reproduces the bit-serial SNG exactly.  code can be
    // 2^bits (value 1.0), where code << shift overflows 64 bits; that
    // case means "always 1" and is special-cased (the RNG words are still
    // consumed, one per cycle, to keep the draw sequence identical).
    const int shift = 64 - bits;
    const bool all_ones = (code >> bits) != 0;
    const std::uint64_t threshold = static_cast<std::uint64_t>(code)
                                    << shift;
    std::uint64_t rnd[64];
    std::uint64_t *dst = row(r);
    // One generator's recurrence is serial, so its words are drawn one
    // at a time; the compare+pack dispatches to the SIMD kernel table.
    // fillBipolarLanes steps several generators side by side instead.
    const simd::KernelTable &kt = simd::kernels();
    for (std::size_t w = 0; w < wpr_; ++w) {
        const std::size_t hi =
            len_ - w * 64 < 64 ? len_ - w * 64 : 64;
        rng.nextWords(rnd, hi);
        std::uint64_t word;
        if (all_ones)
            word = hi == 64 ? ~0ULL : (1ULL << hi) - 1;
        else
            word = kt.thresholdPack(rnd, hi, threshold);
        dst[w] = word;
    }
}

void
StreamMatrix::fillNeutral(std::size_t r)
{
    assert(r < rows_);
    std::uint64_t *dst = row(r);
    for (std::size_t w = 0; w < wpr_; ++w)
        dst[w] = 0xAAAAAAAAAAAAAAAAULL;
    const std::size_t used = len_ % 64;
    if (used != 0)
        dst[wpr_ - 1] &= (1ULL << used) - 1;
}

Bitstream
StreamMatrix::toBitstream(std::size_t r) const
{
    Bitstream s(len_);
    const std::uint64_t *src = row(r);
    for (std::size_t w = 0; w < wpr_; ++w)
        s.setWord(w, src[w]);
    return s;
}

std::size_t
StreamMatrix::countOnes(std::size_t r) const
{
    const std::uint64_t *src = row(r);
    std::size_t ones = 0;
    for (std::size_t w = 0; w < wpr_; ++w)
        ones += static_cast<std::size_t>(std::popcount(src[w]));
    return ones;
}

double
StreamMatrix::bipolarValue(std::size_t r) const
{
    assert(len_ > 0);
    return 2.0 * static_cast<double>(countOnes(r)) /
               static_cast<double>(len_) -
           1.0;
}

void
fillBipolarLanes(StreamMatrix *const out[], const float *const values[],
                 Xoshiro256StarStar *const rng[], std::size_t lanes,
                 int bits, std::size_t begin, std::size_t end)
{
    if (lanes == 0)
        return;
    const std::size_t rows = out[0]->rows();
    assert(begin % 64 == 0 && end <= out[0]->streamLen());
    if (begin >= end)
        return;
    // The threshold and all-ones forms of fillBipolar's compare.
    const int shift = 64 - bits;
    const simd::LaneSngFillFn fill = simd::kernels().laneSngFill;
    for (std::size_t first = 0; first < lanes;
         first += simd::kXoshiroLanes) {
        simd::XoshiroLanes gen;
        gen.lanes = std::min(simd::kXoshiroLanes, lanes - first);
        for (std::size_t l = 0; l < gen.lanes; ++l) {
            assert(out[first + l]->rows() == rows);
            const std::array<std::uint64_t, 4> s = rng[first + l]->state();
            for (std::size_t k = 0; k < 4; ++k)
                gen.s[k][l] = s[k];
        }
        std::uint64_t threshold[simd::kXoshiroLanes] = {};
        std::uint64_t ones[simd::kXoshiroLanes] = {};
        std::uint64_t *dst[simd::kXoshiroLanes];
        for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t l = 0; l < gen.lanes; ++l) {
                const std::uint32_t code =
                    quantizeBipolar(values[first + l][i], bits);
                const bool all_ones = (code >> bits) != 0;
                threshold[l] =
                    all_ones ? 0 : static_cast<std::uint64_t>(code) << shift;
                ones[l] = all_ones ? ~0ULL : 0;
                dst[l] = out[first + l]->row(i) + begin / 64;
            }
            fill(gen, threshold, ones, dst, end - begin);
        }
        for (std::size_t l = 0; l < gen.lanes; ++l)
            rng[first + l]->setState(
                {gen.s[0][l], gen.s[1][l], gen.s[2][l], gen.s[3][l]});
    }
}

} // namespace aqfpsc::sc
