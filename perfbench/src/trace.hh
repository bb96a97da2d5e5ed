/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans wrap calls the benchmark makes into the simulator's public API
 * (never anything inside the simulator). Each span has a name whose
 * first dot-separated component is its layer, a start, an end and a
 * parent. Spans are appended to a vector and written out once, at
 * exit. When tracing is off a Span costs one branch. Every span is
 * opened on the benchmark's one thread, which tracks the nesting.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <map>
#include <string>
#include <vector>

#include "util.hh"

namespace perfbench {

struct SpanRecord
{
    const char* name;
    double start;
    double end;
    int parent; //!< index into the span vector, -1 for a root
};

class Tracer
{
  public:
    static Tracer&
    get()
    {
        static Tracer tracer;
        return tracer;
    }

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    int
    open(const char* name)
    {
        spans_.push_back(SpanRecord{name, now(), 0.0, current_});
        current_ = static_cast<int>(spans_.size()) - 1;
        return current_;
    }

    void
    close(int idx)
    {
        spans_[idx].end = now();
        current_ = spans_[idx].parent;
    }

    const std::vector<SpanRecord>& spans() const { return spans_; }

    /** Self time (duration minus children) summed per span name. */
    std::map<std::string, double>
    selfSecondsByName() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const SpanRecord& s : spans_) {
            if (s.parent >= 0)
                child[s.parent] += s.end - s.start;
        }
        std::map<std::string, double> self;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[spans_[i].name] +=
                spans_[i].end - spans_[i].start - child[i];
        return self;
    }

  private:
    bool enabled_ = false;
    int current_ = -1;
    std::vector<SpanRecord> spans_;
};

/** RAII span; a no-op unless tracing is enabled. */
class Span
{
  public:
    explicit Span(const char* name)
        : idx_(Tracer::get().enabled() ? Tracer::get().open(name) : -1)
    {}
    ~Span()
    {
        if (idx_ >= 0)
            Tracer::get().close(idx_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    int idx_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
