/**
 * @file
 * Shared helpers for the ThyNVM test suite.
 */

#ifndef THYNVM_TESTS_TEST_UTIL_HH
#define THYNVM_TESTS_TEST_UTIL_HH

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/types.hh"
#include "harness/system_kind.hh"
#include "mem/controller.hh"
#include "sim/eventq.hh"

namespace thynvm {
namespace test {

/** A 64-byte block filled with a deterministic pattern of @p tag. */
inline std::array<std::uint8_t, kBlockSize>
patternBlock(std::uint64_t tag)
{
    std::array<std::uint8_t, kBlockSize> data{};
    fillLcgPayload(data.data(), data.size(),
                   tag * 0x9e3779b97f4a7c15ULL + 1);
    return data;
}

/**
 * Synchronous store through a controller: issues the access and runs
 * the event queue until the posted-write acknowledgment.
 */
inline void
storeBlock(EventQueue& eq, MemController& ctrl, Addr paddr,
           const std::array<std::uint8_t, kBlockSize>& data)
{
    bool done = false;
    ctrl.accessBlock(paddr, true, data.data(), nullptr,
                     TrafficSource::CpuWriteback, [&done] { done = true; });
    eq.runUntil([&done] { return done; });
}

/** Synchronous load through a controller. */
inline std::array<std::uint8_t, kBlockSize>
loadBlock(EventQueue& eq, MemController& ctrl, Addr paddr)
{
    std::array<std::uint8_t, kBlockSize> data{};
    bool done = false;
    ctrl.accessBlock(paddr, false, nullptr, data.data(),
                     TrafficSource::DemandRead, [&done] { done = true; });
    eq.runUntil([&done] { return done; });
    return data;
}

/**
 * Seed for a randomized test. Never std::random_device: every failure
 * must be replayable. The default is logged so a failing run can be
 * reproduced, and THYNVM_TEST_SEED overrides it for sweeps.
 */
inline std::uint64_t
loggedSeed(const char* name, std::uint64_t def)
{
    if (const char* env = std::getenv("THYNVM_TEST_SEED"))
        def = std::strtoull(env, nullptr, 10);
    std::printf("[   seed   ] %s = %llu (override with THYNVM_TEST_SEED)\n",
                name, static_cast<unsigned long long>(def));
    return def;
}

/** Run the queue until it is idle (drained) or @p limit is reached. */
inline void
settle(EventQueue& eq, Tick limit_delta = 100 * kMillisecond)
{
    eq.run(eq.now() + limit_delta);
}

/**
 * Scoped environment override (nullptr clears); the previous value is
 * restored on destruction. Constructed *before* the object that reads
 * the variable — stores, kernels, and fast-path switches all sample
 * their knobs at construction time.
 */
struct EnvGuard
{
    EnvGuard(const char* name, const char* value) : name_(name)
    {
        if (const char* old = std::getenv(name)) {
            had_old_ = true;
            old_ = old;
        }
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~EnvGuard()
    {
        if (had_old_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }
    const char* name_;
    std::string old_;
    bool had_old_ = false;
};

} // namespace test

/**
 * gtest printer for SystemKind test parameters: the kind's token without
 * '-' ("idealdram"). CTest's test discovery names an index-named
 * parameterized test after this printout.
 */
inline void
PrintTo(SystemKind kind, std::ostream* os)
{
    for (const char* c = systemToken(kind); *c != '\0'; ++c) {
        if (*c != '-')
            *os << *c;
    }
}

} // namespace thynvm

#endif // THYNVM_TESTS_TEST_UTIL_HH
