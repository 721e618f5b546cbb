#include "stage.h"

#include <utility>

namespace aqfpsc::core {

double
scoreTopTwoGap(const std::vector<double> &scores)
{
    if (scores.size() < 2)
        return 0.0;
    double top = scores[0], second = scores[1];
    if (second > top)
        std::swap(top, second);
    for (std::size_t i = 2; i < scores.size(); ++i) {
        const double s = scores[i];
        if (s > top) {
            second = top;
            top = s;
        } else if (s > second) {
            second = s;
        }
    }
    return top - second;
}

double
ScStage::scoreMargin(const StageContext &ctx, std::size_t) const
{
    // Bipolar scores live in [-1, 1]: half the gap normalizes to [0, 1].
    return 0.5 * scoreTopTwoGap(ctx.scores);
}

} // namespace aqfpsc::core
