/**
 * @file
 * Sequential network container with SGD training, evaluation and
 * weight serialization.
 */

#ifndef AQFPSC_NN_NETWORK_H
#define AQFPSC_NN_NETWORK_H

#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "sc/sng.h"
#include "tensor.h"

namespace aqfpsc::nn {

/** One labelled sample. */
struct Sample
{
    Tensor image;  ///< CHW in [-1, 1]
    int label = 0; ///< class index
};

/** Training hyper-parameters. */
struct TrainConfig
{
    int epochs = 5;
    int batchSize = 32;
    float learningRate = 0.05f;
    float momentum = 0.9f;
    float lrDecay = 0.7f;    ///< multiplicative per-epoch decay
    unsigned shuffleSeed = 7;
    bool verbose = false;
};

/** Sequential feed-forward network. */
class Network
{
  public:
    /** Append a layer (takes ownership). */
    void add(std::unique_ptr<Layer> layer);

    /** Layer access. */
    std::size_t layerCount() const { return layers_.size(); }
    Layer &layer(std::size_t i) { return *layers_[i]; }
    const Layer &layer(std::size_t i) const { return *layers_[i]; }

    /** Forward pass to class scores (logits) through every layer's
     *  infer(): it leaves the training caches alone, so it may run
     *  between a layer's forward() and backward() and on many threads. */
    Tensor forward(const Tensor &x) const;

    /** Predicted class of one image. */
    int predict(const Tensor &x) const;

    /** Mean accuracy over a sample set. */
    double evaluate(const std::vector<Sample> &samples) const;

    /**
     * SGD training with softmax cross-entropy on the final scores.
     * @return final-epoch mean training loss.
     */
    double train(std::vector<Sample> &samples, const TrainConfig &cfg);

    /** SNG code widths quantizeParams() accepts: the SNG's own. */
    static constexpr int kMinQuantBits = sc::kMinSngBits;
    static constexpr int kMaxQuantBits = sc::kMaxSngBits;

    /**
     * Snap all parameters to the bipolar SNG code grid (2^bits + 1 codes
     * over [-1, 1]).  Mirrors how weights are hardwired on chip.
     * Records the grid in quantBits() so model files carry it.
     * @throws std::invalid_argument, before changing any parameter, for
     *         bits outside [kMinQuantBits, kMaxQuantBits].
     */
    void quantizeParams(int bits);

    /** SNG grid the parameters were last quantized to (0 = never). */
    int quantBits() const { return quantBits_; }

    /**
     * Model-file format version written by saveModel ("AQFPSCM2"): a
     * full artifact carrying architecture (layer specs), quantization
     * state and all parameters, so a trained model is saved once and
     * served anywhere without rebuilding the architecture in code.
     * Version 3 appends an integrity footer (FNV-1a-64 checksum of the
     * payload plus a terminal footer magic) so loadModel can tell a
     * partially written file from a bit-flipped one.
     */
    static constexpr int kModelFormatVersion = 3;

    /**
     * Serialize architecture + quantization state + parameters,
     * atomically: the artifact is built in memory (with its checksum
     * footer), written to "<path>.tmp" and renamed over @p path, so a
     * crash mid-save can never leave a half-written file under the
     * final name — readers see the old artifact or the new one.
     * @return success (the temp file is removed on failure).
     */
    bool saveModel(const std::string &path) const;

    /**
     * Reconstruct a network from a saveModel file after verifying its
     * integrity footer.
     * @throws core::StatusError (a std::runtime_error) with an
     *         actionable message; the status code distinguishes
     *         IoError (missing/unreadable), ModelTruncated (footer
     *         missing: partial write), ModelCorrupted (bad magic,
     *         checksum mismatch: bit rot, a NaN/Inf parameter, a
     *         quantization width quantizeParams() would refuse, or layer
     *         shapes that do not chain, see chainLayer) and
     *         InvalidArgument (version/architecture mismatch).
     */
    static Network loadModel(const std::string &path);

    /** Serialize all parameters to a binary file ("AQFPSCW1",
     *  weights-only: the architecture must already exist in code).
     *  @return success. */
    bool saveWeights(const std::string &path) const;

    /** Load parameters saved by saveWeights.  @return success. */
    bool loadWeights(const std::string &path);

    /** Human-readable architecture string, e.g. "Conv3x3x32-AvgPool2-...". */
    std::string describe() const;

  private:
    std::vector<std::unique_ptr<Layer>> layers_;
    int quantBits_ = 0;
};

/**
 * The feature shape one layer hands the next: C x H x W after a conv or
 * a pool, a flat vector of outFeatures after a dense.
 */
struct FeatureShape
{
    int c = 0, h = 0, w = 0;  ///< h == 0: a flat vector
    std::size_t elements = 0; ///< 0: before the first layer

    static FeatureShape spatial(int c, int h, int w);
    static FeatureShape flat(int features);

    /** "2x28x28 features", "20 flat features" or "no input shape ...". */
    std::string describe() const;
};

/** What one layer reads and writes. */
struct LayerShapes
{
    FeatureShape in;
    FeatureShape out;
};

/**
 * The shapes layer @p index of a network reads and writes, given the
 * shape @p prev its predecessor writes.  The first layer
 * (prev.elements == 0) fixes the network input: a conv reads
 * inChannels x 28 x 28 and a fully connected layer its fan-in.
 * Activations pass their input through.
 *
 * Every later layer must read exactly what its predecessor writes, or
 * an engine would read past the previous stage's output rows: a conv
 * needs its channel count of spatial features, AvgPool2 spatial
 * features of even height and width, a fully connected layer its
 * fan-in.  The model loader and core::stages::mapNetwork (the stage
 * compiler's and the hardware report's mapping) walk a network through
 * this function.
 *
 * @throws std::invalid_argument "layer <index> (<name>) expects <what>,
 *         but its input has <prev.describe()>"
 */
LayerShapes chainLayer(std::size_t index, const Layer &layer,
                       const FeatureShape &prev);

/** Numerically stable softmax over a score tensor. */
std::vector<double> softmax(const Tensor &scores);

} // namespace aqfpsc::nn

#endif // AQFPSC_NN_NETWORK_H
