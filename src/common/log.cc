/**
 * @file
 * Implementation of the logging helpers.
 */

#include "common/log.hh"

#include "common/types.hh"

#include <atomic>
#include <cstdio>
#include <stdexcept>

namespace tenoc
{

namespace
{

std::atomic<std::uint64_t> g_warn_count{0};

} // namespace

std::uint64_t
warnCount()
{
    return g_warn_count.load();
}

bool
validateForcedByEnv()
{
    const char *env = std::getenv("TENOC_VALIDATE");
    return env && *env && std::string(env) != "0";
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    g_warn_count.fetch_add(1);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace detail

const char *
memOpName(MemOp op)
{
    switch (op) {
      case MemOp::READ_REQUEST: return "READ_REQUEST";
      case MemOp::WRITE_REQUEST: return "WRITE_REQUEST";
      case MemOp::READ_REPLY: return "READ_REPLY";
      case MemOp::WRITE_ACK: return "WRITE_ACK";
    }
    return "UNKNOWN";
}

const char *
trafficClassName(TrafficClass c)
{
    switch (c) {
      case TrafficClass::LL: return "LL";
      case TrafficClass::LH: return "LH";
      case TrafficClass::HH: return "HH";
    }
    return "??";
}

} // namespace tenoc
