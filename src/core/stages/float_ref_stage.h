/**
 * @file
 * "float-ref" backend: a value-domain reference implementation of the
 * stage graph, registered entirely outside the stage compiler (the
 * demonstration that BackendRegistry is an open API).
 *
 * Every stage replicates the float network's arithmetic bit-exactly
 * (same accumulation order as nn/layers.cc), reading the input image
 * from StageContext::image and passing activations through the
 * StageContext::values side channel instead of stochastic streams.  The
 * backend's traits opt out of both parameter-stream generation and
 * input-stream encoding, so it compiles and runs orders of magnitude
 * faster than the stream backends — the intended use is accuracy
 * debugging: run the same InferenceSession on "aqfp-sorter" and
 * "float-ref" and diff the per-class scores to separate SC noise from
 * model error.
 */

#ifndef AQFPSC_CORE_STAGES_FLOAT_REF_STAGE_H
#define AQFPSC_CORE_STAGES_FLOAT_REF_STAGE_H

#include <vector>

#include "core/backend_registry.h"
#include "stage.h"
#include "stage_common.h"

namespace aqfpsc::core::stages {

/** Registry name of the value-domain reference backend. */
inline constexpr const char *kFloatRefBackend = "float-ref";

/**
 * Common base of the value-domain stages: they run whole images only
 * (not resumable, so the engine hands them the full span) and pass
 * activations through StageContext::values instead of streams.
 */
class FloatRefStage : public ScStage
{
  public:
    void runCohortSpan(const CohortSlot *slots, std::size_t count,
                       std::size_t begin, std::size_t end) const final;

  protected:
    /** Compute one image's activations (or, terminal, its scores). */
    virtual void forward(StageContext &ctx) const = 0;
};

/** Conv2D (+ fused activation) in the value domain. */
class FloatRefConvStage final : public FloatRefStage
{
  public:
    FloatRefConvStage(const ConvGeometry &geom, WeightedStageInit init);

    std::string name() const override;

  private:
    void forward(StageContext &ctx) const override;

    ConvGeometry geom_;
    std::vector<float> w_, b_;
    FusedActivation activation_;
};

/** Hidden Dense (+ fused activation) in the value domain. */
class FloatRefDenseStage final : public FloatRefStage
{
  public:
    FloatRefDenseStage(const DenseGeometry &geom, WeightedStageInit init);

    std::string name() const override;

  private:
    void forward(StageContext &ctx) const override;

    DenseGeometry geom_;
    std::vector<float> w_, b_;
    FusedActivation activation_;
};

/** 2x2 average pooling in the value domain. */
class FloatRefPoolStage final : public FloatRefStage
{
  public:
    explicit FloatRefPoolStage(const PoolGeometry &geom) : geom_(geom) {}

    std::string name() const override;

  private:
    void forward(StageContext &ctx) const override;

    PoolGeometry geom_;
};

/** Terminal scoring stage: linear Dense or the majority-chain fold. */
class FloatRefOutputStage final : public FloatRefStage
{
  public:
    FloatRefOutputStage(const DenseGeometry &geom, WeightedStageInit init);

    std::string name() const override;
    bool terminal() const override { return true; }

  private:
    void forward(StageContext &ctx) const override;

    DenseGeometry geom_;
    std::vector<float> w_, b_;
    bool majorityChain_;
};

} // namespace aqfpsc::core::stages

#endif // AQFPSC_CORE_STAGES_FLOAT_REF_STAGE_H
