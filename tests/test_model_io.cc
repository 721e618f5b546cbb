/**
 * @file
 * Versioned model artifacts: architecture + quantization + weights
 * round-trip through saveModel/loadModel with bit-identical predictions
 * on every backend, corrupt files fail with actionable errors, and the
 * name-keyed model zoo resolves / rejects correctly.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/fault_injection.h"
#include "core/model_zoo.h"
#include "core/session.h"
#include "core/status.h"
#include "data/digits.h"
#include "nn/layers.h"
#include "nn/network.h"

namespace aqfpsc {
namespace {

bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

class TempFile
{
  public:
    explicit TempFile(const char *name)
        : path_(std::string("/tmp/aqfpsc_model_io_") + name)
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(ModelIo, RoundTripCarriesArchitectureAndQuantState)
{
    TempFile file("arch.model");
    nn::Network net = core::buildTinyCnn(9);
    EXPECT_EQ(net.quantBits(), 0);
    net.quantizeParams(10);
    EXPECT_EQ(net.quantBits(), 10);
    ASSERT_TRUE(net.saveModel(file.path()));

    // No architecture is built in code on the load side.
    const nn::Network loaded = nn::Network::loadModel(file.path());
    EXPECT_EQ(loaded.describe(), net.describe());
    EXPECT_EQ(loaded.quantBits(), 10);
    EXPECT_EQ(loaded.layerCount(), net.layerCount());
}

TEST(ModelIo, LoadedPredictionsBitIdenticalOnEveryBackend)
{
    TempFile file("bitexact.model");
    nn::Network net = core::buildTinyCnn(4);
    net.quantizeParams(10);
    ASSERT_TRUE(net.saveModel(file.path()));

    const auto samples = data::generateDigits(5, 31337);
    core::EngineOptions opts;
    opts.streamLen = 256;
    const core::InferenceSession inmem(std::move(net), opts);
    const core::InferenceSession loaded =
        core::InferenceSession::fromFile(file.path(), opts);

    for (const char *backend : {"aqfp-sorter", "cmos-apc", "float-ref"}) {
        SCOPED_TRACE(backend);
        const auto a = inmem.predict(samples, {}, backend);
        const auto b = loaded.predict(samples, {}, backend);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].label, b[i].label) << "image " << i;
            EXPECT_EQ(a[i].scores, b[i].scores) << "image " << i;
        }
    }
}

TEST(ModelIo, LoadModelRejectsMissingAndCorruptFiles)
{
    try {
        nn::Network::loadModel("/tmp/aqfpsc_does_not_exist.model");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_TRUE(contains(e.what(), "cannot open")) << e.what();
    }

    TempFile bad_magic("bad_magic.model");
    {
        std::ofstream out(bad_magic.path(), std::ios::binary);
        out << "NOTAMODL and then some bytes";
    }
    try {
        nn::Network::loadModel(bad_magic.path());
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_TRUE(contains(e.what(), "not an AQFPSC model file"))
            << e.what();
    }

    // Truncate a valid artifact inside the parameter payload.
    TempFile good("good.model");
    TempFile truncated("truncated.model");
    nn::Network net = core::buildTinyCnn(2);
    ASSERT_TRUE(net.saveModel(good.path()));
    {
        std::ifstream in(good.path(), std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        std::ofstream out(truncated.path(), std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 2));
    }
    try {
        nn::Network::loadModel(truncated.path());
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_TRUE(contains(e.what(), "truncated")) << e.what();
    }
}

TEST(ModelIo, FailureTaxonomyDistinguishesTruncationFromCorruption)
{
    TempFile good("taxonomy.model");
    nn::Network net = core::buildTinyCnn(2);
    ASSERT_TRUE(net.saveModel(good.path()));
    std::string bytes;
    {
        std::ifstream in(good.path(), std::ios::binary);
        bytes.assign((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    }

    // Missing file: IoError, not a parse failure.
    try {
        nn::Network::loadModel("/tmp/aqfpsc_does_not_exist.model");
        FAIL() << "expected StatusError";
    } catch (const core::StatusError &e) {
        EXPECT_EQ(e.status().code, core::StatusCode::IoError);
    }

    // Wrong leading magic: a different format, i.e. corruption-class.
    TempFile bad_magic("taxonomy_magic.model");
    {
        std::ofstream out(bad_magic.path(), std::ios::binary);
        out << "NOTAMODL and then some bytes";
    }
    try {
        nn::Network::loadModel(bad_magic.path());
        FAIL() << "expected StatusError";
    } catch (const core::StatusError &e) {
        EXPECT_EQ(e.status().code, core::StatusCode::ModelCorrupted);
    }

    // A cut-off write loses the integrity footer: ModelTruncated, so
    // the operator knows to re-copy instead of suspecting bit rot.
    TempFile truncated("taxonomy_trunc.model");
    {
        std::ofstream out(truncated.path(), std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() - 7));
    }
    try {
        nn::Network::loadModel(truncated.path());
        FAIL() << "expected StatusError";
    } catch (const core::StatusError &e) {
        EXPECT_EQ(e.status().code, core::StatusCode::ModelTruncated);
        EXPECT_TRUE(contains(e.what(), "truncated")) << e.what();
    }

    // A flipped payload bit keeps the footer but fails the checksum:
    // ModelCorrupted, with both checksums in the message.
    TempFile flipped("taxonomy_flip.model");
    {
        std::string mutated = bytes;
        mutated[mutated.size() / 3] ^= 0x10;
        std::ofstream out(flipped.path(), std::ios::binary);
        out.write(mutated.data(),
                  static_cast<std::streamsize>(mutated.size()));
    }
    try {
        nn::Network::loadModel(flipped.path());
        FAIL() << "expected StatusError";
    } catch (const core::StatusError &e) {
        EXPECT_EQ(e.status().code, core::StatusCode::ModelCorrupted);
        EXPECT_TRUE(contains(e.what(), "checksum")) << e.what();
    }
}

TEST(ModelIo, InjectedLoadCorruptionIsCaughtByTheChecksum)
{
    TempFile file("injected.model");
    nn::Network net = core::buildTinyCnn(2);
    ASSERT_TRUE(net.saveModel(file.path()));
    // The artifact on disk is pristine; the fault site flips one
    // payload byte after the read, exactly like memory corruption
    // between read and parse.  The checksum must catch it.
    core::FaultPlan plan(3);
    plan.arm(core::FaultSite::ModelLoadCorrupt, 1.0);
    core::ScopedFaultPlan scope(plan);
    try {
        nn::Network::loadModel(file.path());
        FAIL() << "expected StatusError";
    } catch (const core::StatusError &e) {
        EXPECT_EQ(e.status().code, core::StatusCode::ModelCorrupted);
    }
}

TEST(ModelIo, SaveIsAtomicAndFailsCleanlyOnUnwritablePaths)
{
    nn::Network net = core::buildTinyCnn(2);
    // Unwritable directory: saveModel reports failure instead of
    // throwing, and leaves no temp file behind.
    EXPECT_FALSE(net.saveModel("/nonexistent_dir/model.bin"));
    std::ifstream tmp("/nonexistent_dir/model.bin.tmp");
    EXPECT_FALSE(tmp.good());

    // A successful save leaves exactly the artifact, not the temp.
    TempFile file("atomic.model");
    ASSERT_TRUE(net.saveModel(file.path()));
    std::ifstream final_file(file.path(), std::ios::binary);
    EXPECT_TRUE(final_file.good());
    std::ifstream temp_file(file.path() + ".tmp");
    EXPECT_FALSE(temp_file.good());
}

/** Rewrite @p bytes' FNV-1a-64 footer checksum for its (edited)
 *  payload, so a mutation reaches the parser instead of the checksum. */
void
refreshChecksum(std::string &bytes)
{
    const std::size_t payload = bytes.size() - 16; // checksum + magic
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (std::size_t i = 0; i < payload; ++i) {
        h ^= static_cast<unsigned char>(bytes[i]);
        h *= 0x100000001B3ULL;
    }
    std::memcpy(&bytes[payload], &h, sizeof(h));
}

TEST(ModelIo, InflatedLayerSizesAreRejectedBeforeAllocation)
{
    // One Dense(2, 3): its spec's in/out fields sit right after the
    // magic, version, quant bits, layer count and kind bytes.
    constexpr std::size_t kInOffset = 8 + 4 + 4 + 4 + 1;
    nn::Network net;
    net.add(std::make_unique<nn::Dense>(2, 3, 0u));
    TempFile good("inflated_good.model");
    ASSERT_TRUE(net.saveModel(good.path()));
    std::string bytes;
    {
        std::ifstream in(good.path(), std::ios::binary);
        bytes.assign((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    }

    struct Case
    {
        std::int32_t in, out;
    };
    // About 120 GB of weights, gradients and momenta, and a size whose
    // allocation would throw std::length_error.
    for (const Case c : {Case{2, 3}, Case{100000, 100000},
                         Case{INT32_MAX, INT32_MAX}}) {
        SCOPED_TRACE(std::to_string(c.in) + "x" + std::to_string(c.out));
        std::string mutated = bytes;
        std::memcpy(&mutated[kInOffset], &c.in, sizeof(c.in));
        std::memcpy(&mutated[kInOffset + 4], &c.out, sizeof(c.out));
        refreshChecksum(mutated);
        TempFile file("inflated.model");
        {
            std::ofstream out(file.path(), std::ios::binary);
            out.write(mutated.data(),
                      static_cast<std::streamsize>(mutated.size()));
        }
        if (c.in == 2) {
            // The rewritten footer is valid: the unmodified sizes load.
            EXPECT_EQ(nn::Network::loadModel(file.path()).describe(),
                      net.describe());
            continue;
        }
        try {
            nn::Network::loadModel(file.path());
            FAIL() << "expected StatusError";
        } catch (const core::StatusError &e) {
            EXPECT_EQ(e.status().code, core::StatusCode::ModelCorrupted);
            EXPECT_TRUE(contains(e.what(), "payload bytes left"))
                << e.what();
        }
    }
}

TEST(ModelIo, QuantizationWidthsOutsideTheCodeGridAreRejected)
{
    // The quantization width sits right after the magic and version.
    constexpr std::size_t kQuantOffset = 8 + 4;
    nn::Network net;
    net.add(std::make_unique<nn::Dense>(2, 3, 0u));
    TempFile good("quant_good.model");
    ASSERT_TRUE(net.saveModel(good.path()));
    std::string bytes;
    {
        std::ifstream in(good.path(), std::ios::binary);
        bytes.assign((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    }
    for (const std::int32_t bits : {0, 1, 20, -1, 21, 40}) {
        SCOPED_TRACE(bits);
        std::string mutated = bytes;
        std::memcpy(&mutated[kQuantOffset], &bits, sizeof(bits));
        refreshChecksum(mutated);
        TempFile file("quant.model");
        {
            std::ofstream out(file.path(), std::ios::binary);
            out.write(mutated.data(),
                      static_cast<std::streamsize>(mutated.size()));
        }
        if (bits == 0 || (bits >= nn::Network::kMinQuantBits &&
                          bits <= nn::Network::kMaxQuantBits)) {
            EXPECT_EQ(nn::Network::loadModel(file.path()).quantBits(), bits);
            continue;
        }
        try {
            nn::Network::loadModel(file.path());
            FAIL() << "expected StatusError";
        } catch (const core::StatusError &e) {
            EXPECT_EQ(e.status().code, core::StatusCode::ModelCorrupted);
            EXPECT_TRUE(contains(e.what(), "quantization bits")) << e.what();
        }
    }
}

TEST(ModelIo, NonFiniteParametersAreRejected)
{
    // A NaN or Inf weight survives save (the checksum covers the bytes,
    // not their meaning) but must not load: float-ref would score it and
    // the SC backends would quantize it to an arbitrary code.
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
        SCOPED_TRACE(std::to_string(bad));
        nn::Network net = core::buildTinyCnn(5);
        // Layer 4 is the hidden FC64; parameter block 1 is its bias.
        (*net.layer(4).params()[1])[7] = bad;
        TempFile file("nonfinite.model");
        ASSERT_TRUE(net.saveModel(file.path()));
        try {
            nn::Network::loadModel(file.path());
            FAIL() << "expected StatusError";
        } catch (const core::StatusError &e) {
            EXPECT_EQ(e.status().code, core::StatusCode::ModelCorrupted);
            EXPECT_TRUE(contains(e.what(), "layer 4 (FC64)")) << e.what();
            EXPECT_TRUE(contains(e.what(), "non-finite parameter"))
                << e.what();
            EXPECT_TRUE(contains(e.what(), "at index 7")) << e.what();
        }
    }
}

TEST(ModelIo, LayerShapesThatDoNotChainAreRejected)
{
    // tiny's second AvgPool2 (layer 3) rewritten as a SorterTanh: every
    // parameter block still matches its layer, but FC64 (layer 4) would
    // read 8x14x14 features where its fan-in is 7x7x8 = 392.  The footer
    // is recomputed, so only the shape check can reject the artifact.
    constexpr std::size_t kLayer3Kind = 8 + 4 + 4 + 4 + 3 * 13;
    TempFile good("chain_good.model");
    ASSERT_TRUE(core::buildTinyCnn(5).saveModel(good.path()));
    std::string bytes;
    {
        std::ifstream in(good.path(), std::ios::binary);
        bytes.assign((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_EQ(bytes[kLayer3Kind],
              static_cast<char>(nn::LayerSpec::Kind::AvgPool2));
    bytes[kLayer3Kind] = static_cast<char>(nn::LayerSpec::Kind::SorterTanh);
    refreshChecksum(bytes);
    TempFile file("chain.model");
    {
        std::ofstream out(file.path(), std::ios::binary);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
        nn::Network::loadModel(file.path());
        FAIL() << "expected StatusError";
    } catch (const core::StatusError &e) {
        EXPECT_EQ(e.status().code, core::StatusCode::ModelCorrupted);
        EXPECT_TRUE(contains(e.what(),
                             "layer 4 (FC64) expects 392 input features, "
                             "but its input has 8x14x14 features"))
            << e.what();
    }

    // Every zoo model chains, so each still round-trips.
    for (const std::string &name : core::modelNames()) {
        SCOPED_TRACE(name);
        const nn::Network net = core::buildModel(name, 3);
        TempFile zoo("chain_zoo.model");
        ASSERT_TRUE(net.saveModel(zoo.path()));
        EXPECT_EQ(nn::Network::loadModel(zoo.path()).describe(),
                  net.describe());
    }
}

TEST(ModelIo, WeightsOnlyFilesAreRejectedWithGuidance)
{
    TempFile weights("weights.bin");
    nn::Network net = core::buildTinyCnn(2);
    ASSERT_TRUE(net.saveWeights(weights.path()));
    try {
        nn::Network::loadModel(weights.path());
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_TRUE(contains(e.what(), "AQFPSCW1")) << e.what();
        EXPECT_TRUE(contains(e.what(), "loadWeights")) << e.what();
    }
}

TEST(ModelZoo, NameKeyedLookup)
{
    EXPECT_EQ(core::modelNames(),
              (std::vector<std::string>{"dnn", "snn", "tiny"}));
    EXPECT_EQ(core::buildModel("tiny", 3).describe(),
              core::buildTinyCnn(3).describe());
    EXPECT_EQ(core::buildModel("snn").describe(),
              core::buildSnn().describe());
    try {
        core::buildModel("mega");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_TRUE(contains(e.what(), "unknown model 'mega'"))
            << e.what();
        EXPECT_TRUE(contains(e.what(), "dnn, snn, tiny")) << e.what();
    }
}

TEST(ModelZoo, MakeLayerRejectsBadSpecs)
{
    nn::LayerSpec bad_kind;
    bad_kind.kind = static_cast<nn::LayerSpec::Kind>(99);
    EXPECT_THROW(nn::makeLayer(bad_kind), std::invalid_argument);

    nn::LayerSpec even_kernel;
    even_kernel.kind = nn::LayerSpec::Kind::Conv2D;
    even_kernel.p0 = 1;
    even_kernel.p1 = 8;
    even_kernel.p2 = 4; // kernels must be odd
    EXPECT_THROW(nn::makeLayer(even_kernel), std::invalid_argument);
}

} // namespace
} // namespace aqfpsc
