#include "service/client.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "service/http.h"
#include "support/error.h"

namespace petabricks {
namespace service {

Client::Client(const std::string &host, uint16_t port, int timeoutMillis)
    : host_(host), timeoutMillis_(timeoutMillis),
      stream_(net::TcpStream::connect(host, port, timeoutMillis))
{}

KvFile
Client::command(const std::string &method, const std::string &target,
                const std::string &body)
{
    std::ostringstream request;
    request << method << ' ' << target << " HTTP/1.1\r\n"
            << "Host: " << host_ << "\r\n"
            << "Content-Length: " << body.size() << "\r\n"
            << "Connection: keep-alive\r\n\r\n"
            << body;
    stream_.writeAll(request.str());

    // ---- Read one response (headers, then Content-Length body) --------
    lastTransientWas503_ = false;
    auto readMore = [&] {
        if (timeoutMillis_ > 0 &&
            !net::waitReadable(stream_.fd(), timeoutMillis_))
            PB_TRANSIENT("timed out after "
                         << timeoutMillis_
                         << "ms awaiting a response from the daemon");
        char buffer[16384];
        ptrdiff_t n = stream_.read(buffer, sizeof(buffer));
        if (n <= 0)
            PB_FATAL("connection closed by tuning daemon");
        inbox_.append(buffer, static_cast<size_t>(n));
    };
    size_t headerEnd;
    while ((headerEnd = inbox_.find("\r\n\r\n")) == std::string::npos)
        readMore();

    std::string statusLine = inbox_.substr(0, inbox_.find("\r\n"));
    std::istringstream status(statusLine);
    std::string version;
    int code = 0;
    if (!(status >> version >> code) || version.rfind("HTTP/1.", 0) != 0)
        PB_FATAL("malformed response from daemon: '" << statusLine
                                                     << "'");

    size_t bodySize = 0;
    {
        // Case-insensitivity dodged: the daemon always sends
        // "Content-Length".
        size_t pos = inbox_.find("Content-Length:");
        if (pos == std::string::npos || pos > headerEnd)
            PB_FATAL("daemon response lacks Content-Length");
        bodySize = static_cast<size_t>(
            std::strtoull(inbox_.c_str() + pos + 15, nullptr, 10));
    }
    while (inbox_.size() < headerEnd + 4 + bodySize)
        readMore();
    std::string headerBlock = inbox_.substr(0, headerEnd);
    std::string responseBody = inbox_.substr(headerEnd + 4, bodySize);
    inbox_.erase(0, headerEnd + 4 + bodySize);

    KvFile kv = KvFile::fromString(responseBody);
    if (code == 503) {
        // Backpressure or drain: the daemon asked us to come back, so
        // callers with a retry loop must be able to tell this apart
        // from a genuine failure. Remember its Retry-After hint (the
        // daemon always spells the header exactly "Retry-After", like
        // "Content-Length" above).
        lastRetryAfterSeconds_ = -1;
        if (size_t pos = headerBlock.find("Retry-After:");
            pos != std::string::npos)
            lastRetryAfterSeconds_ = static_cast<int>(
                std::strtol(headerBlock.c_str() + pos + 12, nullptr, 10));
        lastTransientWas503_ = true;
        PB_TRANSIENT("daemon busy (503): "
                     << (kv.has("error") ? kv.get("error")
                                         : responseBody));
    }
    if (code >= 400)
        PB_FATAL("daemon error " << code << ": "
                                 << (kv.has("error") ? kv.get("error")
                                                     : responseBody));
    return kv;
}

KvFile
Client::commandWithRetry(const std::string &method,
                         const std::string &target,
                         const std::string &body)
{
    for (int attempt = 0;; ++attempt) {
        try {
            return command(method, target, body);
        } catch (const TransientError &) {
            // Only a completed 503 is safe to resend (see
            // ClientRetryPolicy) — a timeout may have executed.
            if (!lastTransientWas503_ || attempt >= retry_.attempts)
                throw;
        }
        // Honor the server's Retry-After hint when it sent one;
        // exponential fallback otherwise. Both capped, both jittered —
        // deterministically (xorshift64), so tests can bound the total.
        long long sleepMillis =
            lastRetryAfterSeconds_ >= 0
                ? 1000LL * lastRetryAfterSeconds_
                : static_cast<long long>(retry_.fallbackBaseMillis)
                      << std::min(attempt, 20);
        sleepMillis = std::min(
            sleepMillis, static_cast<long long>(retry_.maxSleepMillis));
        if (retry_.jitterCapMillis > 0) {
            if (jitterState_ == 0)
                jitterState_ = retry_.jitterSeed | 1;
            jitterState_ ^= jitterState_ << 13;
            jitterState_ ^= jitterState_ >> 7;
            jitterState_ ^= jitterState_ << 17;
            sleepMillis += static_cast<long long>(
                jitterState_ %
                static_cast<uint64_t>(retry_.jitterCapMillis));
        }
        if (sleepMillis > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(sleepMillis));
    }
}

void
Client::ping()
{
    command("GET", "/ping");
}

std::string
Client::create(const KvFile &options)
{
    return commandWithRetry("POST", "/create", options.toString())
        .get("session");
}

int
Client::step(const std::string &sessionId, int steps, bool wait)
{
    std::string target = "/step?session=" + sessionId +
                         "&steps=" + std::to_string(steps);
    if (!wait)
        target += "&wait=0";
    KvFile kv = commandWithRetry("POST", target);
    return wait ? static_cast<int>(kv.getInt("step.advanced")) : 0;
}

KvFile
Client::status(const std::string &sessionId)
{
    return command("GET", "/status?session=" + sessionId);
}

tuner::SessionIntrospection
Client::introspect(const std::string &sessionId)
{
    KvFile kv = status(sessionId);
    tuner::SessionIntrospection view;
    view.done = kv.getInt("status.done") != 0;
    view.completedSteps =
        static_cast<int>(kv.getInt("status.completedSteps"));
    view.totalSteps = static_cast<int>(kv.getInt("status.totalSteps"));
    view.generation = static_cast<int>(kv.getInt("status.generation"));
    view.generationsPerSize =
        static_cast<int>(kv.getInt("status.generationsPerSize"));
    view.currentInputSize = kv.getInt("status.currentInputSize");
    view.populationSize =
        static_cast<size_t>(kv.getInt("status.populationSize"));
    view.bestSeconds = kv.getDouble("status.bestSeconds");
    view.evaluations = kv.getInt("status.evaluations");
    view.mutationsAccepted = kv.getInt("status.mutationsAccepted");
    view.mutationsRejected = kv.getInt("status.mutationsRejected");
    view.cacheHits = kv.getInt("status.cacheHits");
    view.tuningSeconds = kv.getDouble("status.tuningSeconds");
    view.compileSeconds = kv.getDouble("status.compileSeconds");
    view.cacheStats.hits = kv.getInt("cache.hits");
    view.cacheStats.misses = kv.getInt("cache.misses");
    view.cacheStats.insertions = kv.getInt("cache.insertions");
    view.cacheStats.invalidated = kv.getInt("cache.invalidated");
    return view;
}

KvFile
Client::runToCompletion(const std::string &sessionId, int stepsPerCall)
{
    while (!introspect(sessionId).done)
        step(sessionId, stepsPerCall);
    return champion(sessionId);
}

KvFile
Client::champion(const std::string &sessionId)
{
    return commandWithRetry("GET", "/champion?session=" + sessionId);
}

void
Client::stopSession(const std::string &sessionId)
{
    commandWithRetry("POST", "/stop?session=" + sessionId);
}

void
Client::resume(const std::string &sessionId)
{
    commandWithRetry("POST", "/resume?session=" + sessionId);
}

KvFile
Client::stats()
{
    return command("GET", "/stats");
}

KvFile
Client::machines()
{
    return command("GET", "/machines");
}

KvFile
Client::portfolio()
{
    return command("GET", "/portfolio");
}

KvFile
Client::portfolioChampion(const std::string &benchmark,
                          const std::string &machine, int64_t n)
{
    return commandWithRetry("GET",
                            "/portfolio/champion?benchmark=" +
                                urlEncode(benchmark) +
                                "&machine=" + urlEncode(machine) +
                                "&n=" + std::to_string(n));
}

KvFile
Client::portfolioTune(const KvFile &options)
{
    return commandWithRetry("POST", "/portfolio/tune", options.toString());
}

void
Client::shutdownServer()
{
    command("POST", "/shutdown");
}

} // namespace service
} // namespace petabricks
