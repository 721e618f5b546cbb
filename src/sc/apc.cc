#include "apc.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace aqfpsc::sc {

int
exactColumnCount(const std::vector<bool> &bits)
{
    int ones = 0;
    for (bool b : bits)
        ones += b ? 1 : 0;
    return ones;
}

int
ApproximateParallelCounter::count(const std::vector<bool> &bits) const
{
    assert(static_cast<int>(bits.size()) == m_);
    int total = 0;
    int i = 0;
    for (; i + 1 < m_; i += 2) {
        const bool a = bits[static_cast<std::size_t>(i)];
        const bool b = bits[static_cast<std::size_t>(i) + 1];
        total += 2 * (a && b ? 1 : 0) + (a || b ? 1 : 0);
    }
    if (i < m_)
        total += bits[static_cast<std::size_t>(i)] ? 1 : 0;
    return total;
}

int
ApproximateParallelCounter::gateCount() const
{
    // First layer: one AND + one OR per input pair.
    const int pairs = m_ / 2;
    int gates = 2 * pairs;
    // Exact adder tree over `pairs` two-bit operands: a w-bit adder costs
    // ~5 gates/bit (full adder); tree has pairs-1 adders of growing width.
    int operands = pairs;
    int width = 2;
    while (operands > 1) {
        const int adders = operands / 2;
        gates += adders * 5 * width;
        operands = (operands + 1) / 2;
        ++width;
    }
    return gates;
}

ColumnCounts::ColumnCounts(std::size_t len, int max_count)
    : len_(len), wordCount_((len + 63) / 64), maxCount_(max_count)
{
    assert(max_count >= 1);
    planeCount_ = std::bit_width(static_cast<unsigned>(max_count));
    planes_.assign(static_cast<std::size_t>(planeCount_) * wordCount_, 0);
}

void
ColumnCounts::add(const Bitstream &s)
{
    assert(s.size() == len_);
    assert(added_ < maxCount_);
    ++added_;
    for (std::size_t w = 0; w < wordCount_; ++w) {
        std::uint64_t carry = s.word(w);
        for (int k = 0; k < planeCount_ && carry; ++k) {
            std::uint64_t &plane = planes_[
                static_cast<std::size_t>(k) * wordCount_ + w];
            const std::uint64_t t = plane & carry;
            plane ^= carry;
            carry = t;
        }
        assert(carry == 0 && "ColumnCounts overflow");
    }
}

void
ColumnCounts::addWords(const std::uint64_t *words, std::size_t word_count)
{
    // Spans (drivePrefix) may add fewer words than the full stream.
    assert(word_count <= wordCount_);
    assert(added_ < maxCount_);
    ++added_;
    for (std::size_t w = 0; w < word_count; ++w) {
        std::uint64_t carry = words[w];
        for (int k = 0; k < planeCount_ && carry; ++k) {
            std::uint64_t &plane = planes_[
                static_cast<std::size_t>(k) * wordCount_ + w];
            const std::uint64_t t = plane & carry;
            plane ^= carry;
            carry = t;
        }
        assert(carry == 0 && "ColumnCounts overflow");
    }
}

void
ColumnCounts::addXnor(const std::uint64_t *x, const std::uint64_t *w,
                      std::size_t word_count)
{
    // Spans (drivePrefix) may add fewer words than the full stream.
    assert(word_count <= wordCount_);
    assert(added_ < maxCount_);
    ++added_;
    for (std::size_t wi = 0; wi < word_count; ++wi) {
        std::uint64_t carry = ~(x[wi] ^ w[wi]);
        for (int k = 0; k < planeCount_ && carry; ++k) {
            std::uint64_t &plane = planes_[
                static_cast<std::size_t>(k) * wordCount_ + wi];
            const std::uint64_t t = plane & carry;
            plane ^= carry;
            carry = t;
        }
        assert(carry == 0 && "ColumnCounts overflow");
    }
}

std::uint64_t *
ColumnCounts::overwritePlanes()
{
    added_ = maxCount_;
    return planes_.data();
}

int
ColumnCounts::count(std::size_t i) const
{
    assert(i < len_);
    const std::size_t w = i / 64;
    const std::size_t b = i % 64;
    int c = 0;
    for (int k = 0; k < planeCount_; ++k) {
        c |= static_cast<int>(
                 (planes_[static_cast<std::size_t>(k) * wordCount_ + w]
                  >> b) & 1ULL)
             << k;
    }
    return c;
}

void
ColumnCounts::extract(std::vector<int> &out) const
{
    out.assign(len_, 0);
    for (int k = 0; k < planeCount_; ++k) {
        const std::uint64_t *plane =
            &planes_[static_cast<std::size_t>(k) * wordCount_];
        for (std::size_t w = 0; w < wordCount_; ++w) {
            std::uint64_t bits = plane[w];
            while (bits) {
                const int b = std::countr_zero(bits);
                bits &= bits - 1;
                const std::size_t idx = w * 64 + static_cast<std::size_t>(b);
                if (idx < len_)
                    out[idx] |= 1 << k;
            }
        }
    }
}

void
ColumnCounts::clear()
{
    // Counts never exceed the number of streams added, so planes at and
    // above bit_width(added_) are still zero — re-zero only the dirty
    // prefix (the whole point of reusing one counter per output neuron).
    const std::size_t dirty =
        static_cast<std::size_t>(dirtyPlanes()) * wordCount_;
    std::fill_n(planes_.begin(), dirty, 0);
    added_ = 0;
}

} // namespace aqfpsc::sc
