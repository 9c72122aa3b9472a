#include "service/http.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>

#include "support/error.h"

namespace petabricks {
namespace service {

namespace {

std::string
toLower(std::string text)
{
    for (char &c : text)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return text;
}

std::string
toUpper(std::string text)
{
    for (char &c : text)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return text;
}

std::string
trim(const std::string &text)
{
    size_t begin = text.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return std::string();
    size_t end = text.find_last_not_of(" \t\r");
    return text.substr(begin, end - begin + 1);
}

const char *
reasonPhrase(int status)
{
    switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
    }
}

} // namespace

std::string
HttpRequest::param(const std::string &key, const std::string &fallback) const
{
    auto it = query.find(key);
    return it == query.end() ? fallback : it->second;
}

int64_t
HttpRequest::intParam(const std::string &key, int64_t fallback) const
{
    auto it = query.find(key);
    if (it == query.end())
        return fallback;
    const std::string &text = it->second;
    char *end = nullptr;
    long long value = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || end != text.c_str() + text.size())
        PB_FATAL("query parameter '" << key << "' is not an integer: '"
                                     << text << "'");
    return static_cast<int64_t>(value);
}

std::string
HttpResponse::serialize() const
{
    std::ostringstream out;
    out << "HTTP/1.1 " << status << ' ' << reasonPhrase(status) << "\r\n"
        << "Content-Type: " << contentType << "\r\n"
        << "Content-Length: " << body.size() << "\r\n";
    if (retryAfterSeconds > 0)
        out << "Retry-After: " << retryAfterSeconds << "\r\n";
    out << "Connection: " << (keepAlive ? "keep-alive" : "close")
        << "\r\n\r\n"
        << body;
    return out.str();
}

HttpResponse
HttpResponse::ok(std::string body)
{
    HttpResponse response;
    response.body = std::move(body);
    return response;
}

HttpResponse
HttpResponse::error(int status, std::string message)
{
    HttpResponse response;
    response.status = status;
    if (!message.empty() && message.back() != '\n')
        message += '\n';
    response.body = "error = " + std::move(message);
    return response;
}

std::string
urlEncode(const std::string &text)
{
    static const char *hex = "0123456789ABCDEF";
    std::string out;
    out.reserve(text.size());
    for (unsigned char c : text) {
        if (std::isalnum(c) || c == '-' || c == '_' || c == '.' ||
            c == '~') {
            out += static_cast<char>(c);
        } else {
            out += '%';
            out += hex[c >> 4];
            out += hex[c & 15];
        }
    }
    return out;
}

std::string
urlDecode(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (c == '+') {
            out += ' ';
        } else if (c == '%' && i + 2 < text.size() &&
                   std::isxdigit(static_cast<unsigned char>(text[i + 1])) &&
                   std::isxdigit(static_cast<unsigned char>(text[i + 2]))) {
            out += static_cast<char>(
                std::stoi(text.substr(i + 1, 2), nullptr, 16));
            i += 2;
        } else {
            out += c;
        }
    }
    return out;
}

std::map<std::string, std::string>
parseQuery(const std::string &query)
{
    std::map<std::string, std::string> params;
    size_t pos = 0;
    while (pos < query.size()) {
        size_t amp = query.find('&', pos);
        if (amp == std::string::npos)
            amp = query.size();
        std::string pair = query.substr(pos, amp - pos);
        if (!pair.empty()) {
            size_t eq = pair.find('=');
            if (eq == std::string::npos)
                params[urlDecode(pair)] = "";
            else
                params[urlDecode(pair.substr(0, eq))] =
                    urlDecode(pair.substr(eq + 1));
        }
        pos = amp + 1;
    }
    return params;
}

void
HttpParser::feed(const char *data, size_t size)
{
    if (failed_)
        return;
    // No size check here: a burst of pipelined requests may legally
    // exceed any per-request bound, and each gets popped (and its
    // bytes trimmed) by next(). The limits live in next(), where
    // "incomplete request" and "oversized request" can be told apart —
    // an unparseable tail is bounded there at maxBytes_ of headers
    // plus maxBytes_ of body.
    buffer_.append(data, size);
}

std::optional<HttpRequest>
HttpParser::next()
{
    if (failed_)
        return std::nullopt;
    size_t headerEnd = buffer_.find("\r\n\r\n");
    if (headerEnd == std::string::npos) {
        if (buffer_.size() > maxBytes_)
            fail("headers exceed size limit");
        return std::nullopt;
    }
    if (headerEnd > maxBytes_) {
        // The terminator exists but the headers alone bust the
        // per-request cap (possible when a whole oversized request
        // arrives within one read burst).
        fail("headers exceed size limit");
        return std::nullopt;
    }

    HttpRequest request;
    // ---- Request line -------------------------------------------------
    size_t lineEnd = buffer_.find("\r\n");
    std::string line = buffer_.substr(0, lineEnd);
    std::istringstream requestLine(line);
    std::string version;
    if (!(requestLine >> request.method >> request.target >> version) ||
        version.rfind("HTTP/1.", 0) != 0) {
        fail("malformed request line: '" + line + "'");
        return std::nullopt;
    }
    request.method = toUpper(request.method);

    size_t qmark = request.target.find('?');
    if (qmark == std::string::npos) {
        request.path = urlDecode(request.target);
    } else {
        request.path = urlDecode(request.target.substr(0, qmark));
        request.query = parseQuery(request.target.substr(qmark + 1));
    }

    // ---- Headers ------------------------------------------------------
    size_t pos = lineEnd + 2;
    while (pos < headerEnd) {
        size_t end = buffer_.find("\r\n", pos);
        std::string header = buffer_.substr(pos, end - pos);
        pos = end + 2;
        size_t colon = header.find(':');
        if (colon == std::string::npos) {
            fail("malformed header: '" + header + "'");
            return std::nullopt;
        }
        request.headers[toLower(trim(header.substr(0, colon)))] =
            trim(header.substr(colon + 1));
    }

    // ---- Body ---------------------------------------------------------
    size_t bodySize = 0;
    auto it = request.headers.find("content-length");
    if (it != request.headers.end()) {
        char *end = nullptr;
        long long parsed = std::strtoll(it->second.c_str(), &end, 10);
        if (it->second.empty() || *end != '\0' || parsed < 0) {
            fail("bad Content-Length: '" + it->second + "'");
            return std::nullopt;
        }
        bodySize = static_cast<size_t>(parsed);
        if (bodySize > maxBytes_) {
            fail("body exceeds size limit");
            return std::nullopt;
        }
    }
    size_t total = headerEnd + 4 + bodySize;
    if (buffer_.size() < total)
        return std::nullopt; // body still in flight
    request.body = buffer_.substr(headerEnd + 4, bodySize);
    buffer_.erase(0, total);
    return request;
}

void
HttpParser::fail(const std::string &reason)
{
    failed_ = true;
    failReason_ = reason;
    buffer_.clear();
}

} // namespace service
} // namespace petabricks
