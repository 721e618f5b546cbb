#include "network.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <random>
#include <stdexcept>
#include <utility>

#include "core/fault_injection.h"
#include "core/status.h"
#include "sc/sng.h"

namespace aqfpsc::nn {

void
Network::add(std::unique_ptr<Layer> layer)
{
    layers_.push_back(std::move(layer));
}

Tensor
Network::forward(const Tensor &x) const
{
    Tensor cur = x;
    for (const auto &l : layers_)
        cur = l->infer(cur);
    return cur;
}

int
Network::predict(const Tensor &x) const
{
    const Tensor scores = forward(x);
    int best = 0;
    for (std::size_t i = 1; i < scores.size(); ++i) {
        if (scores[i] > scores[static_cast<std::size_t>(best)])
            best = static_cast<int>(i);
    }
    return best;
}

double
Network::evaluate(const std::vector<Sample> &samples) const
{
    if (samples.empty())
        return 0.0;
    int correct = 0;
    for (const auto &s : samples)
        correct += predict(s.image) == s.label ? 1 : 0;
    return static_cast<double>(correct) / static_cast<double>(samples.size());
}

std::vector<double>
softmax(const Tensor &scores)
{
    double mx = scores[0];
    for (std::size_t i = 1; i < scores.size(); ++i)
        mx = std::max(mx, static_cast<double>(scores[i]));
    std::vector<double> p(scores.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < scores.size(); ++i) {
        p[i] = std::exp(static_cast<double>(scores[i]) - mx);
        sum += p[i];
    }
    for (auto &v : p)
        v /= sum;
    return p;
}

double
Network::train(std::vector<Sample> &samples, const TrainConfig &cfg)
{
    std::mt19937 gen(cfg.shuffleSeed);
    std::vector<std::size_t> order(samples.size());
    std::iota(order.begin(), order.end(), 0);

    float lr = cfg.learningRate;
    double epoch_loss = 0.0;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        std::shuffle(order.begin(), order.end(), gen);
        epoch_loss = 0.0;
        int in_batch = 0;
        for (std::size_t n = 0; n < order.size(); ++n) {
            const Sample &s = samples[order[n]];
            // Forward through all layers, keeping caches.
            Tensor cur = s.image;
            for (auto &l : layers_)
                cur = l->forward(cur);
            // Softmax cross-entropy gradient on the scores.
            const std::vector<double> p = softmax(cur);
            epoch_loss += -std::log(
                std::max(p[static_cast<std::size_t>(s.label)], 1e-12));
            Tensor grad({static_cast<int>(cur.size())});
            for (std::size_t i = 0; i < cur.size(); ++i) {
                grad[i] = static_cast<float>(p[i]) -
                          (static_cast<int>(i) == s.label ? 1.0f : 0.0f);
            }
            for (std::size_t li = layers_.size(); li-- > 0;)
                grad = layers_[li]->backward(grad);

            if (++in_batch == cfg.batchSize || n + 1 == order.size()) {
                const float scaled_lr =
                    lr / static_cast<float>(in_batch);
                for (auto &l : layers_)
                    l->update(scaled_lr, cfg.momentum);
                in_batch = 0;
            }
        }
        epoch_loss /= static_cast<double>(samples.size());
        if (cfg.verbose) {
            std::printf("  epoch %d/%d: loss %.4f (lr %.4f)\n", epoch + 1,
                        cfg.epochs, epoch_loss, static_cast<double>(lr));
            std::fflush(stdout);
        }
        lr *= cfg.lrDecay;
    }
    return epoch_loss;
}

void
Network::quantizeParams(int bits)
{
    if (bits < kMinQuantBits || bits > kMaxQuantBits)
        throw std::invalid_argument(
            "quantizeParams: " + std::to_string(bits) + " bits is outside [" +
            std::to_string(kMinQuantBits) + ", " +
            std::to_string(kMaxQuantBits) + "], the SNG code widths");
    quantBits_ = bits;
    for (auto &l : layers_) {
        for (std::vector<float> *p : l->params()) {
            for (auto &w : *p) {
                w = static_cast<float>(sc::codeToBipolar(
                    sc::quantizeBipolar(static_cast<double>(w), bits),
                    bits));
            }
        }
    }
}

bool
Network::saveWeights(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    const char magic[8] = {'A', 'Q', 'F', 'P', 'S', 'C', 'W', '1'};
    out.write(magic, sizeof(magic));
    for (const auto &l : layers_) {
        for (const std::vector<float> *p : std::as_const(*l).params()) {
            const std::uint64_t n = p->size();
            out.write(reinterpret_cast<const char *>(&n), sizeof(n));
            out.write(reinterpret_cast<const char *>(p->data()),
                      static_cast<std::streamsize>(n * sizeof(float)));
        }
    }
    return static_cast<bool>(out);
}

bool
Network::loadWeights(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    char magic[8];
    in.read(magic, sizeof(magic));
    if (!in || std::string(magic, 8) != "AQFPSCW1")
        return false;
    for (auto &l : layers_) {
        for (std::vector<float> *p : l->params()) {
            std::uint64_t n = 0;
            in.read(reinterpret_cast<char *>(&n), sizeof(n));
            if (!in || n != p->size())
                return false;
            in.read(reinterpret_cast<char *>(p->data()),
                    static_cast<std::streamsize>(n * sizeof(float)));
            if (!in)
                return false;
        }
    }
    return true;
}

namespace {

using core::StatusCode;
using core::StatusError;

constexpr char kModelMagic[8] = {'A', 'Q', 'F', 'P', 'S', 'C', 'M', '2'};
/// Terminal footer magic: its presence at the very end of the file is
/// what proves the write completed.  A file that stops before it is a
/// partial write (truncation), not bit rot.
constexpr char kModelFooterMagic[8] = {'A', 'Q', 'F', 'P', 'S', 'C', 'K',
                                       '1'};
/// Footer layout: FNV-1a-64 checksum of everything before the footer,
/// then the footer magic.
constexpr std::size_t kModelFooterBytes = 8 + sizeof(kModelFooterMagic);

/** FNV-1a 64-bit over a byte range; dependency-free and fast enough
 *  for MB-scale artifacts (integrity, not cryptography). */
std::uint64_t
fnv1a64(const char *data, std::size_t size)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001B3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i) {
        s[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return s;
}

/**
 * Parameters a layer spec declares (weights plus biases), saturating at
 * UINT64_MAX.  Parameter-free kinds, and shapes makeLayer rejects
 * anyway, declare none.
 */
std::uint64_t
declaredParams(const LayerSpec &spec)
{
    constexpr std::uint64_t kMax = UINT64_MAX;
    const auto mul = [](std::uint64_t a, std::uint64_t b) {
        return b != 0 && a > kMax / b ? kMax : a * b;
    };
    const auto add = [](std::uint64_t a, std::uint64_t b) {
        return a > kMax - b ? kMax : a + b;
    };
    const auto in = static_cast<std::uint64_t>(spec.p0);
    const auto out = static_cast<std::uint64_t>(spec.p1);
    const auto k = static_cast<std::uint64_t>(spec.p2);
    switch (spec.kind) {
    case LayerSpec::Kind::Conv2D:
        if (spec.p0 <= 0 || spec.p1 <= 0 || spec.p2 <= 0)
            return 0;
        return add(mul(mul(mul(out, in), k), k), out);
    case LayerSpec::Kind::Dense:
    case LayerSpec::Kind::MajorityChainDense:
        if (spec.p0 <= 0 || spec.p1 <= 0)
            return 0;
        return add(mul(in, out), out);
    case LayerSpec::Kind::HardTanh:
    case LayerSpec::Kind::SorterTanh:
    case LayerSpec::Kind::AvgPool2:
        break;
    }
    return 0;
}

/** Append-only in-memory serializer the artifact is built into before
 *  it touches the file system. */
struct ByteSink
{
    std::string bytes;

    template <typename T> void pod(const T &v)
    {
        bytes.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }
    void raw(const void *data, std::size_t size)
    {
        bytes.append(static_cast<const char *>(data), size);
    }
};

/** Bounds-checked cursor over the verified payload bytes. */
struct ByteSource
{
    const std::string &bytes;
    std::size_t pos;
    std::size_t end;
    const std::string &path;

    template <typename T> T pod(const char *what)
    {
        T v{};
        if (end - pos < sizeof(T))
            throw StatusError(StatusCode::ModelTruncated,
                              "loadModel: '" + path +
                                  "' truncated file while reading " + what);
        std::memcpy(&v, bytes.data() + pos, sizeof(T));
        pos += sizeof(T);
        return v;
    }
    void raw(void *out, std::size_t size, const char *what)
    {
        if (end - pos < size)
            throw StatusError(StatusCode::ModelTruncated,
                              "loadModel: '" + path +
                                  "' truncated file while reading " +
                                  std::string(what));
        std::memcpy(out, bytes.data() + pos, size);
        pos += size;
    }
};

} // namespace

bool
Network::saveModel(const std::string &path) const
{
    ByteSink sink;
    sink.raw(kModelMagic, sizeof(kModelMagic));
    sink.pod(static_cast<std::uint32_t>(kModelFormatVersion));
    sink.pod(static_cast<std::int32_t>(quantBits_));
    sink.pod(static_cast<std::uint32_t>(layers_.size()));
    for (const auto &l : layers_) {
        const LayerSpec spec = l->spec();
        sink.pod(static_cast<std::uint8_t>(spec.kind));
        sink.pod(static_cast<std::int32_t>(spec.p0));
        sink.pod(static_cast<std::int32_t>(spec.p1));
        sink.pod(static_cast<std::int32_t>(spec.p2));
    }
    for (const auto &l : layers_) {
        for (const std::vector<float> *p : std::as_const(*l).params()) {
            const std::uint64_t n = p->size();
            sink.pod(n);
            sink.raw(p->data(), p->size() * sizeof(float));
        }
    }
    sink.pod(fnv1a64(sink.bytes.data(), sink.bytes.size()));
    sink.raw(kModelFooterMagic, sizeof(kModelFooterMagic));

    // Atomic publish: a crash mid-write can orphan the temp file but
    // never leave a partial artifact under the final name.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(sink.bytes.data(),
                  static_cast<std::streamsize>(sink.bytes.size()));
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

Network
Network::loadModel(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw StatusError(StatusCode::IoError,
                          "loadModel: cannot open '" + path + "'");
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();

    // Leading magic first: "this is not even one of our files" beats
    // any structural diagnosis.
    if (bytes.size() < sizeof(kModelMagic) ||
        std::memcmp(bytes.data(), kModelMagic, sizeof(kModelMagic)) != 0)
        throw StatusError(
            StatusCode::ModelCorrupted,
            "loadModel: '" + path +
                "' is not an AQFPSC model file (expected magic AQFPSCM2; "
                "weights-only AQFPSCW1 files need loadWeights on a network "
                "built in code)");

    // Chaos-test hook: flip one payload byte before verification, to
    // prove the checksum actually catches silent corruption.
    if (core::fault::shouldFire(core::FaultSite::ModelLoadCorrupt,
                                bytes.size()))
        bytes[bytes.size() / 2] ^= 0x01;

    ByteSource src{bytes, sizeof(kModelMagic), bytes.size(), path};
    const auto version = src.pod<std::uint32_t>("version");
    if (version != static_cast<std::uint32_t>(kModelFormatVersion))
        throw StatusError(StatusCode::InvalidArgument,
                          "loadModel: '" + path + "' has format version " +
                              std::to_string(version) +
                              "; this build reads version " +
                              std::to_string(kModelFormatVersion));

    // Integrity footer.  No terminal footer magic -> the write never
    // finished (truncation).  Footer present but checksum mismatch ->
    // the bytes changed after the write (corruption).
    if (bytes.size() < sizeof(kModelMagic) + sizeof(std::uint32_t) +
                           kModelFooterBytes ||
        std::memcmp(bytes.data() + bytes.size() - sizeof(kModelFooterMagic),
                    kModelFooterMagic, sizeof(kModelFooterMagic)) != 0)
        throw StatusError(StatusCode::ModelTruncated,
                          "loadModel: '" + path +
                              "' truncated: the file ends without its "
                              "integrity footer, so the write never "
                              "completed (partial copy or crash mid-save)");
    const std::size_t payload_end = bytes.size() - kModelFooterBytes;
    std::uint64_t stored = 0;
    std::memcpy(&stored, bytes.data() + payload_end, sizeof(stored));
    const std::uint64_t actual = fnv1a64(bytes.data(), payload_end);
    if (stored != actual)
        throw StatusError(StatusCode::ModelCorrupted,
                          "loadModel: '" + path +
                              "' is corrupt: payload checksum " +
                              hex64(actual) + " does not match recorded " +
                              hex64(stored) +
                              " (bit rot or an in-place edit; re-copy or "
                              "re-save the artifact)");
    src.end = payload_end;

    Network net;
    net.quantBits_ = src.pod<std::int32_t>("quantBits");
    // 0: never quantized.
    if (net.quantBits_ != 0 && (net.quantBits_ < kMinQuantBits ||
                                net.quantBits_ > kMaxQuantBits))
        throw StatusError(StatusCode::ModelCorrupted,
                          "loadModel: '" + path + "' records " +
                              std::to_string(net.quantBits_) +
                              " quantization bits, outside 0 (never "
                              "quantized) and [" +
                              std::to_string(kMinQuantBits) + ", " +
                              std::to_string(kMaxQuantBits) + "]");
    const auto n_layers = src.pod<std::uint32_t>("layer count");
    // Building a layer allocates its weights, gradients and momenta, so
    // the sizes a spec declares are checked against the payload first:
    // the parameters of every layer so far must fit in the bytes left.
    std::uint64_t declared = 0;
    FeatureShape shape;
    for (std::uint32_t i = 0; i < n_layers; ++i) {
        LayerSpec spec;
        spec.kind =
            static_cast<LayerSpec::Kind>(src.pod<std::uint8_t>("kind"));
        spec.p0 = src.pod<std::int32_t>("layer param");
        spec.p1 = src.pod<std::int32_t>("layer param");
        spec.p2 = src.pod<std::int32_t>("layer param");
        const std::uint64_t params = declaredParams(spec);
        const std::uint64_t left = src.end - src.pos;
        declared = params > UINT64_MAX - declared ? UINT64_MAX
                                                  : declared + params;
        if (declared > left / sizeof(float))
            throw StatusError(StatusCode::ModelCorrupted,
                              "loadModel: '" + path + "' layer " +
                                  std::to_string(i) + " declares " +
                                  std::to_string(params) +
                                  " parameters, more than the " +
                                  std::to_string(left) +
                                  " payload bytes left can hold");
        try {
            net.add(makeLayer(spec));
        } catch (const std::invalid_argument &e) {
            throw StatusError(StatusCode::ModelCorrupted,
                              "loadModel: '" + path + "' layer " +
                                  std::to_string(i) + ": " + e.what());
        }
        // A network whose shapes do not chain would fail only when an
        // engine compiles it, at first use.
        try {
            shape = chainLayer(i, net.layer(i), shape).out;
        } catch (const std::invalid_argument &e) {
            throw StatusError(StatusCode::ModelCorrupted,
                              "loadModel: '" + path + "' " + e.what());
        }
    }
    for (std::size_t i = 0; i < net.layers_.size(); ++i) {
        Layer &l = *net.layers_[i];
        for (std::vector<float> *p : l.params()) {
            const auto n = src.pod<std::uint64_t>("parameter count");
            if (n != p->size())
                throw StatusError(
                    StatusCode::ModelCorrupted,
                    "loadModel: '" + path + "' parameter block of " +
                        l.name() + " holds " + std::to_string(n) +
                        " floats, architecture expects " +
                        std::to_string(p->size()));
            src.raw(p->data(), p->size() * sizeof(float),
                    "layer parameters");
            const std::string bad = nonFiniteParameter(*p);
            if (!bad.empty())
                throw StatusError(StatusCode::ModelCorrupted,
                                  "loadModel: '" + path + "' layer " +
                                      std::to_string(i) + " (" + l.name() +
                                      ") " + bad);
        }
    }
    return net;
}

std::string
nonFiniteParameter(const std::vector<float> &block)
{
    const auto bad = std::find_if(block.begin(), block.end(),
                                  [](float v) { return !std::isfinite(v); });
    if (bad == block.end())
        return {};
    return "holds a non-finite parameter " + std::to_string(*bad) +
           " at index " + std::to_string(bad - block.begin());
}

FeatureShape
FeatureShape::spatial(int c, int h, int w)
{
    return {c, h, w, static_cast<std::size_t>(c) * h * w};
}

FeatureShape
FeatureShape::flat(int features)
{
    return {0, 0, 0, static_cast<std::size_t>(features)};
}

std::string
FeatureShape::describe() const
{
    if (elements == 0)
        return "no input shape (it is the first layer)";
    if (h == 0)
        return std::to_string(elements) + " flat features";
    return std::to_string(c) + "x" + std::to_string(h) + "x" +
           std::to_string(w) + " features";
}

namespace {

[[noreturn]] void
throwShapeMismatch(std::size_t index, const Layer &layer,
                   const std::string &expects, const FeatureShape &shape)
{
    throw std::invalid_argument("layer " + std::to_string(index) + " (" +
                                layer.name() + ") expects " + expects +
                                ", but its input has " + shape.describe());
}

/** A fully connected layer's input: its fan-in, which must be the
 *  previous layer's output size. */
FeatureShape
fanInShape(std::size_t index, const Layer &layer, int in_features,
           const FeatureShape &prev)
{
    if (prev.elements == 0)
        return FeatureShape::flat(in_features);
    if (static_cast<std::size_t>(in_features) != prev.elements)
        throwShapeMismatch(index, layer,
                           std::to_string(in_features) + " input features",
                           prev);
    return prev;
}

} // namespace

LayerShapes
chainLayer(std::size_t index, const Layer &layer, const FeatureShape &prev)
{
    if (const auto *conv = dynamic_cast<const Conv2D *>(&layer)) {
        // The first layer fixes the input geometry to 28x28.
        const FeatureShape in =
            prev.elements == 0
                ? FeatureShape::spatial(conv->inChannels(), 28, 28)
                : prev;
        if (in.h == 0 || conv->inChannels() != in.c)
            throwShapeMismatch(index, layer,
                               std::to_string(conv->inChannels()) +
                                   " input channels of HxW features",
                               in);
        return {in, FeatureShape::spatial(conv->outChannels(), in.h, in.w)};
    }
    if (dynamic_cast<const AvgPool2 *>(&layer) != nullptr) {
        if (prev.h == 0 || prev.h % 2 != 0 || prev.w % 2 != 0)
            throwShapeMismatch(index, layer, "CxHxW features of even H and W",
                               prev);
        return {prev, FeatureShape::spatial(prev.c, prev.h / 2, prev.w / 2)};
    }
    if (const auto *fc = dynamic_cast<const Dense *>(&layer))
        return {fanInShape(index, layer, fc->inFeatures(), prev),
                FeatureShape::flat(fc->outFeatures())};
    if (const auto *chain = dynamic_cast<const MajorityChainDense *>(&layer))
        return {fanInShape(index, layer, chain->inFeatures(), prev),
                FeatureShape::flat(chain->outFeatures())};
    return {prev, prev};
}

std::string
Network::describe() const
{
    std::string s;
    for (const auto &l : layers_) {
        if (!s.empty())
            s += "-";
        s += l->name();
    }
    return s;
}

} // namespace aqfpsc::nn
