/**
 * @file
 * "float-ref" backend: the float network itself, run stage by stage.
 *
 * Each stage holds copies of the float layers its MappedStage maps (the
 * source layer and its fused activation) and runs them through
 * nn::Layer::infer, so its scores are bit-identical to
 * nn::Network::forward by construction.  The first stage reads the
 * input image from StageContext::image; activations pass to the next
 * stage through the StageContext::values side channel instead of
 * stochastic streams.  The backend has no streams (Backend::streams is
 * false): no parameter streams are generated and no input is encoded,
 * so it compiles and runs orders of magnitude faster than the stream
 * backends.  The intended use is accuracy debugging: run the same
 * InferenceSession on "aqfp-sorter" and "float-ref" and diff the
 * per-class scores (or the per-stage values) to separate SC noise from
 * model error.
 */

#ifndef AQFPSC_CORE_STAGES_FLOAT_REF_STAGE_H
#define AQFPSC_CORE_STAGES_FLOAT_REF_STAGE_H

#include <memory>
#include <string>
#include <vector>

#include "core/sc_engine.h"
#include "nn/layers.h"
#include "stage.h"

namespace aqfpsc::core::stages {

struct MappedStage;
struct StageShared;

/**
 * One value-domain stage: owned copies of its mapped float layers (a
 * plan may outlive the network it was compiled from), run whole images
 * only (not resumable, so the engine hands it the full span).
 */
class FloatRefStage final : public ScStage
{
  public:
    /**
     * @param name Stage name, e.g. "FloatRefConv 8x28x28 k3".
     * @param terminal Whether the stage writes the scores.
     * @param in_shape The shape the first layer reads (CHW or flat); the
     *        stage reshapes its input, a flat image included, to it.
     * @param layers The layers to run in order.
     */
    FloatRefStage(std::string name, bool terminal, std::vector<int> in_shape,
                  std::vector<std::unique_ptr<nn::Layer>> layers);

    std::string name() const override { return name_; }
    bool terminal() const override { return terminal_; }

    void runCohortSpan(const CohortSlot *slots, std::size_t count,
                       std::size_t begin, std::size_t end) const override;

  private:
    std::string name_;
    bool terminal_;
    std::vector<int> inShape_;
    std::vector<std::unique_ptr<nn::Layer>> layers_;
};

/** The float-ref backend's core::StageFactory: a FloatRefStage running
 *  copies of @p m's layers (the streams and options are unused). */
std::unique_ptr<ScStage>
makeFloatRefStage(const MappedStage &m, std::shared_ptr<const StageShared>,
                  const EngineOptions &);

} // namespace aqfpsc::core::stages

#endif // AQFPSC_CORE_STAGES_FLOAT_REF_STAGE_H
