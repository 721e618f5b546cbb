#include "sng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace aqfpsc::sc {

std::uint32_t
quantizeUnipolar(double x, int bits)
{
    assert(bits >= kMinSngBits && bits <= kMaxSngBits);
    const double clipped = std::clamp(x, 0.0, 1.0);
    const double scale = static_cast<double>(1u << bits);
    return static_cast<std::uint32_t>(std::lround(clipped * scale));
}

std::uint32_t
quantizeBipolar(double x, int bits)
{
    return quantizeUnipolar((std::clamp(x, -1.0, 1.0) + 1.0) / 2.0, bits);
}

double
codeToUnipolar(std::uint32_t code, int bits)
{
    return static_cast<double>(code) / static_cast<double>(1u << bits);
}

double
codeToBipolar(std::uint32_t code, int bits)
{
    return 2.0 * codeToUnipolar(code, bits) - 1.0;
}

Bitstream
generateStream(std::uint32_t code, int bits, std::size_t len,
               RandomSource &rng)
{
    assert(code <= (1u << bits));
    Bitstream s(len);
    for (std::size_t w = 0; w < s.wordCount(); ++w) {
        std::uint64_t word = 0;
        const std::size_t hi = std::min<std::size_t>(64, len - w * 64);
        for (std::size_t b = 0; b < hi; ++b) {
            if (rng.nextBits(bits) < code)
                word |= 1ULL << b;
        }
        s.setWord(w, word);
    }
    return s;
}

Bitstream
encodeUnipolar(double x, int bits, std::size_t len, RandomSource &rng)
{
    return generateStream(quantizeUnipolar(x, bits), bits, len, rng);
}

Bitstream
encodeBipolar(double x, int bits, std::size_t len, RandomSource &rng)
{
    return generateStream(quantizeBipolar(x, bits), bits, len, rng);
}

SngBank::SngBank(int rng_bits, Mode mode, std::uint64_t seed)
    : rngBits_(rng_bits), mode_(mode), seed_(seed),
      matrixDim_((rng_bits % 2 == 0) ? rng_bits + 1 : rng_bits),
      fastRng_(seed)
{
    assert(rng_bits >= 3 && rng_bits <= kMaxSngBits);
}

std::vector<Bitstream>
SngBank::generate(const std::vector<std::uint32_t> &codes, std::size_t len)
{
    std::vector<Bitstream> streams;
    streams.reserve(codes.size());

    if (mode_ == Mode::IndependentRng) {
        for (std::uint32_t code : codes)
            streams.push_back(generateStream(code, rngBits_, len, fastRng_));
        return streams;
    }

    // SharedMatrix mode: assign each code an output slot of an RNG matrix
    // (4 * matrixDim_ slots per matrix), then march all matrices through
    // len cycles, comparing each cycle's random number against the code.
    const int slots_per_matrix = 4 * matrixDim_;
    const int needed = static_cast<int>(
        (codes.size() + slots_per_matrix - 1) / slots_per_matrix);
    while (matricesUsed() < needed) {
        matrices_.emplace_back(
            matrixDim_,
            seed_ + 0xA5A5ULL * static_cast<std::uint64_t>(matricesUsed()));
    }

    for (std::size_t i = 0; i < codes.size(); ++i)
        streams.emplace_back(len);

    const std::uint64_t bit_mask = (1ULL << rngBits_) - 1ULL;
    for (std::size_t cycle = 0; cycle < len; ++cycle) {
        for (std::size_t i = 0; i < codes.size(); ++i) {
            const int m = static_cast<int>(i) / slots_per_matrix;
            const int slot = static_cast<int>(i) % slots_per_matrix;
            const std::uint64_t r =
                matrices_[static_cast<std::size_t>(m)].output(slot) &
                bit_mask;
            if (r < codes[i])
                streams[i].set(cycle, true);
        }
        for (auto &matrix : matrices_)
            matrix.step();
    }
    return streams;
}

std::vector<Bitstream>
SngBank::generateBipolar(const std::vector<double> &values, std::size_t len)
{
    std::vector<std::uint32_t> codes;
    codes.reserve(values.size());
    for (double v : values)
        codes.push_back(quantizeBipolar(v, rngBits_));
    return generate(codes, len);
}

} // namespace aqfpsc::sc
