/**
 * @file
 * Small helpers shared by the benchmark driver: host clocks, order
 * statistics, the stats-dump digest and parser, peak RSS, and a
 * minimal JSON writer.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/** Host seconds since an arbitrary fixed origin (steady clock). */
inline double
now()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

/**
 * Host clock calibration. On a shared virtual machine the core clock
 * drifts by several percent over tens of seconds, and every host time
 * drifts with it, even at its fastest. sample() times kPieces short
 * pieces of one chain of dependent integer operations, whose length
 * in core cycles is fixed, and keeps each piece's fastest time; floor()
 * is their sum, the chain's duration at the current clock. scale()
 * turns a host time measured now into host time at the clock of the
 * reference host, on which floor() read kReferenceSeconds (README.md).
 */
class ClockCalibration
{
  public:
    static constexpr int kPieces = 32;
    static constexpr std::uint64_t kSteps = 125000;
    static constexpr double kReferenceSeconds = 0.00925;

    ClockCalibration()
    {
        std::fill(std::begin(fastest_), std::end(fastest_), HUGE_VAL);
    }

    void
    sample()
    {
        double piece[kPieces];
        std::uint64_t x = 88172645463325252ULL;
        volatile std::uint64_t sink = 0;
        for (int p = 0; p < kPieces; ++p) {
            const double t0 = now();
            for (std::uint64_t i = 0; i < kSteps; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            sink = x; // the chain completes before the clock is read
            piece[p] = now() - t0;
        }
        (void)sink;
        for (int p = 0; p < kPieces; ++p)
            fastest_[p] = std::min(fastest_[p], piece[p]);
    }

    /** Seconds of the whole chain, each piece at its fastest; 0 before
     *  the first sample. */
    double
    floor() const
    {
        double s = 0.0;
        for (double t : fastest_)
            s += t;
        return std::isfinite(s) ? s : 0.0;
    }

    double
    scale() const
    {
        const double f = floor();
        return f > 0.0 ? kReferenceSeconds / f : 1.0;
    }

  private:
    double fastest_[kPieces];
};

/** The calibration of this process, sampled before every round. */
inline ClockCalibration&
hostClock()
{
    static ClockCalibration clock;
    return clock;
}

/** Linear-interpolated quantile @p q in [0, 1]; 0 for an empty set. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

/**
 * Smallest value; 0 for an empty set. The benchmark's timing estimator:
 * the simulated work of an op is identical in every round, and on a
 * shared host other tenants only ever add time to it, in bursts from
 * well under a second to minutes long. The fastest round is the one
 * least disturbed. Its run-to-run spread was a third or less of
 * that of the mean or the median over the same rounds (README.md).
 */
inline double
minimum(const std::vector<double>& v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/**
 * Per-index minimum over @p rows, which all hold the same ops in the
 * same order (one row per round).
 */
inline std::vector<double>
minimumPerOp(const std::vector<std::vector<double>>& rows)
{
    std::vector<double> out;
    for (const std::vector<double>& row : rows) {
        if (out.empty())
            out = row;
        for (std::size_t i = 0; i < row.size() && i < out.size(); ++i)
            out[i] = std::min(out[i], row[i]);
    }
    return out;
}

/** Geometric mean of positive values; 0 when any value is not. */
inline double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v) {
        if (x <= 0.0)
            return 0.0;
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/**
 * Parse a System::dumpStats() text dump into name -> value. Each stat
 * line is "<name> <value>  # <description>"; the "tick=" header line
 * becomes the entry "tick".
 */
inline std::map<std::string, double>
parseStats(const std::string& dump)
{
    std::map<std::string, double> out;
    std::istringstream in(dump);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("tick=", 0) == 0) {
            out["tick"] = std::stod(line.substr(5));
            continue;
        }
        std::istringstream ls(line);
        std::string name, value;
        if (ls >> name >> value)
            out[name] = std::strtod(value.c_str(), nullptr);
    }
    return out;
}

/** Running FNV-1a 64 hash, rendered as 16 hex digits. */
class Digest
{
  public:
    void
    add(const std::string& s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 1099511628211ULL;
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

/**
 * Digest of a stats dump over the "<name>=<value>" token pairs only, so
 * descriptions and column padding do not matter but every simulated
 * number does.
 */
inline std::string
statsDigest(const std::string& dump)
{
    Digest d;
    std::istringstream in(dump);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string name, value;
        if (!(ls >> name))
            continue;
        ls >> value;
        d.add(name + "=" + value + "\n");
    }
    return d.hex();
}

/** Peak resident set size of this process in MB (ru_maxrss). */
inline double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Minimal streaming JSON writer: objects, arrays, strings, numbers and
 * booleans; keys are emitted in call order.
 */
class Json
{
  public:
    Json& beginObject(const char* key = nullptr)
    {
        prefix(key);
        out_ += '{';
        first_.push_back(true);
        return *this;
    }
    Json& endObject()
    {
        out_ += '}';
        first_.pop_back();
        return *this;
    }
    Json& beginArray(const char* key = nullptr)
    {
        prefix(key);
        out_ += '[';
        first_.push_back(true);
        return *this;
    }
    Json& endArray()
    {
        out_ += ']';
        first_.pop_back();
        return *this;
    }
    Json& num(const char* key, double v)
    {
        prefix(key);
        char buf[40];
        if (!std::isfinite(v))
            v = 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out_ += buf;
        return *this;
    }
    Json& num(double v) { return num(nullptr, v); }
    Json& str(const char* key, const std::string& s)
    {
        prefix(key);
        quote(s);
        return *this;
    }
    Json& str(const std::string& s) { return str(nullptr, s); }
    Json& boolean(const char* key, bool b)
    {
        prefix(key);
        out_ += b ? "true" : "false";
        return *this;
    }
    const std::string& text() const { return out_; }

  private:
    void prefix(const char* key)
    {
        if (!first_.empty()) {
            if (!first_.back())
                out_ += ',';
            first_.back() = false;
        }
        if (key != nullptr) {
            quote(key);
            out_ += ':';
        }
    }

    void quote(const std::string& s)
    {
        out_ += '"';
        for (char c : s) {
            if (c == '"' || c == '\\')
                out_ += '\\';
            if (static_cast<unsigned char>(c) < 0x20)
                continue;
            out_ += c;
        }
        out_ += '"';
    }

    std::string out_;
    std::vector<bool> first_;
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
