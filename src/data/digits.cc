#include "digits.h"

#include <array>
#include <cassert>
#include <cmath>
#include <random>
#include <string_view>

namespace aqfpsc::data {

namespace {

/** Hand-authored 8-column x 12-row digit masks ('#' = ink). */
constexpr std::array<std::array<std::string_view, 12>, 10> kGlyphs = {{
    // 0
    {{"..####..",
      ".##..##.",
      "##....##",
      "##....##",
      "##....##",
      "##....##",
      "##....##",
      "##....##",
      "##....##",
      "##....##",
      ".##..##.",
      "..####.."}},
    // 1
    {{"...##...",
      "..###...",
      ".####...",
      "...##...",
      "...##...",
      "...##...",
      "...##...",
      "...##...",
      "...##...",
      "...##...",
      "...##...",
      ".######."}},
    // 2
    {{"..####..",
      ".##..##.",
      "##....##",
      "......##",
      ".....##.",
      "....##..",
      "...##...",
      "..##....",
      ".##.....",
      "##......",
      "##......",
      "########"}},
    // 3
    {{"..####..",
      ".##..##.",
      "......##",
      "......##",
      ".....##.",
      "...###..",
      ".....##.",
      "......##",
      "......##",
      "......##",
      ".##..##.",
      "..####.."}},
    // 4
    {{".....##.",
      "....###.",
      "...####.",
      "..##.##.",
      ".##..##.",
      "##...##.",
      "##...##.",
      "########",
      ".....##.",
      ".....##.",
      ".....##.",
      ".....##."}},
    // 5
    {{"########",
      "##......",
      "##......",
      "##......",
      "######..",
      "##...##.",
      "......##",
      "......##",
      "......##",
      "##....##",
      ".##..##.",
      "..####.."}},
    // 6
    {{"..####..",
      ".##..##.",
      "##......",
      "##......",
      "##.###..",
      "###..##.",
      "##....##",
      "##....##",
      "##....##",
      "##....##",
      ".##..##.",
      "..####.."}},
    // 7
    {{"########",
      "......##",
      ".....##.",
      ".....##.",
      "....##..",
      "....##..",
      "...##...",
      "...##...",
      "..##....",
      "..##....",
      ".##.....",
      ".##....."}},
    // 8
    {{"..####..",
      ".##..##.",
      "##....##",
      "##....##",
      ".##..##.",
      "..####..",
      ".##..##.",
      "##....##",
      "##....##",
      "##....##",
      ".##..##.",
      "..####.."}},
    // 9
    {{"..####..",
      ".##..##.",
      "##....##",
      "##....##",
      "##....##",
      "##....##",
      ".##..###",
      "..###.##",
      "......##",
      "......##",
      ".##..##.",
      "..####.."}},
}};

constexpr int kGlyphW = 8;
constexpr int kGlyphH = 12;

/** Bilinear sample of a glyph mask at fractional coordinates. */
double
sampleGlyph(int digit, double gx, double gy)
{
    auto ink = [&](int x, int y) -> double {
        if (x < 0 || x >= kGlyphW || y < 0 || y >= kGlyphH)
            return 0.0;
        return kGlyphs[static_cast<std::size_t>(digit)]
                      [static_cast<std::size_t>(y)]
                      [static_cast<std::size_t>(x)] == '#'
                   ? 1.0
                   : 0.0;
    };
    const int x0 = static_cast<int>(std::floor(gx));
    const int y0 = static_cast<int>(std::floor(gy));
    const double fx = gx - x0, fy = gy - y0;
    return ink(x0, y0) * (1 - fx) * (1 - fy) +
           ink(x0 + 1, y0) * fx * (1 - fy) +
           ink(x0, y0 + 1) * (1 - fx) * fy +
           ink(x0 + 1, y0 + 1) * fx * fy;
}

} // namespace

std::vector<nn::Sample>
generateDigits(int count, std::uint64_t seed, const DigitGenConfig &cfg)
{
    assert(count >= 1);
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    // A unit normal scaled by noiseStd: std::normal_distribution requires
    // stddev > 0, and noiseStd = 0 (noise-free images) is valid.  This is
    // the same value the library's z * stddev + mean draw produces.
    std::normal_distribution<double> unit_normal(0.0, 1.0);

    const int n = kDigitImageSize;
    std::vector<nn::Sample> samples;
    samples.reserve(static_cast<std::size_t>(count));

    for (int i = 0; i < count; ++i) {
        const int digit = i % 10; // balanced classes
        const double angle = (2.0 * uni(gen) - 1.0) * cfg.maxRotateDeg *
                             M_PI / 180.0;
        const double scale =
            cfg.minScale + (cfg.maxScale - cfg.minScale) * uni(gen);
        const double dx = (2.0 * uni(gen) - 1.0) * cfg.maxShift;
        const double dy = (2.0 * uni(gen) - 1.0) * cfg.maxShift;
        const double ca = std::cos(angle), sa = std::sin(angle);

        // Map output pixel centre back into glyph coordinates: inverse of
        // (glyph centre -> scale -> rotate -> translate -> image centre).
        const double gcx = kGlyphW / 2.0, gcy = kGlyphH / 2.0;
        const double icx = n / 2.0 + dx, icy = n / 2.0 + dy;
        // Glyph pixels are stretched ~2x to fill the 28x28 canvas.
        const double base_scale = 2.0 * scale;

        nn::Sample s;
        s.image = nn::Tensor({1, n, n});
        s.label = digit;
        for (int y = 0; y < n; ++y) {
            for (int x = 0; x < n; ++x) {
                const double rx = (x + 0.5 - icx) / base_scale;
                const double ry = (y + 0.5 - icy) / base_scale;
                const double gx = ca * rx + sa * ry + gcx - 0.5;
                const double gy = -sa * rx + ca * ry + gcy - 0.5;
                double v = sampleGlyph(digit, gx, gy) +
                           unit_normal(gen) * cfg.noiseStd;
                v = std::min(1.0, std::max(0.0, v));
                // Bipolar input domain for SC.
                s.image.at(0, y, x) = static_cast<float>(2.0 * v - 1.0);
            }
        }
        samples.push_back(std::move(s));
    }
    return samples;
}

} // namespace aqfpsc::data
