#include "net.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace sst {
namespace serve {
namespace {

/** Per-line / per-stream cap; a protocol line is at most a few KiB of
 *  escaped spec text, so 16 MiB means "peer is broken", not "big job". */
constexpr std::size_t kMaxStreamBytes = 16ULL << 20;

[[noreturn]] void
throwErrno(const std::string &what)
{
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

int
parsePort(const std::string &text)
{
    if (text.empty() || text.size() > 5)
        throw std::invalid_argument("bad TCP port '" + text + "'");
    long v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            throw std::invalid_argument("bad TCP port '" + text + "'");
        v = v * 10 + (c - '0');
    }
    if (v > 65535)
        throw std::invalid_argument("bad TCP port '" + text + "'");
    return static_cast<int>(v);
}

sockaddr_in
tcpAddr(const Endpoint &ep)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(ep.port));
    if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1)
        throw std::invalid_argument("bad TCP host '" + ep.host +
                                    "' (numeric IPv4 only)");
    return addr;
}

sockaddr_un
unixAddr(const Endpoint &ep)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (ep.path.size() >= sizeof(addr.sun_path))
        throw std::invalid_argument("socket path too long: " + ep.path);
    std::memcpy(addr.sun_path, ep.path.c_str(), ep.path.size() + 1);
    return addr;
}

} // namespace

std::string
Endpoint::text() const
{
    if (tcp)
        return "tcp:" + host + ":" + std::to_string(port);
    return path;
}

Endpoint
parseEndpoint(const std::string &text)
{
    if (text.empty())
        throw std::invalid_argument("empty endpoint");
    Endpoint ep;
    if (text.rfind("tcp:", 0) == 0) {
        ep.tcp = true;
        const std::string rest = text.substr(4);
        const std::size_t colon = rest.rfind(':');
        if (colon == std::string::npos) {
            ep.port = parsePort(rest);
        } else {
            ep.host = rest.substr(0, colon);
            if (ep.host.empty())
                throw std::invalid_argument("empty TCP host in '" + text +
                                            "'");
            ep.port = parsePort(rest.substr(colon + 1));
        }
    } else {
        ep.path = text;
    }
    return ep;
}

Socket::~Socket()
{
    close();
}

Socket::Socket(Socket &&other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)), pos_(other.pos_)
{
    other.fd_ = -1;
    other.pos_ = 0;
}

Socket &
Socket::operator=(Socket &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        buf_ = std::move(other.buf_);
        pos_ = other.pos_;
        other.fd_ = -1;
        other.pos_ = 0;
    }
    return *this;
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buf_.clear();
    pos_ = 0;
}

bool
Socket::readLine(std::string &line)
{
    line.clear();
    for (;;) {
        // Drain buffered bytes first.
        while (pos_ < buf_.size()) {
            const char c = buf_[pos_++];
            if (c == '\n')
                return true;
            line += c;
            if (line.size() > kMaxStreamBytes)
                throw std::runtime_error("protocol line too long");
        }
        buf_.clear();
        pos_ = 0;

        char chunk[4096];
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("read");
        }
        if (n == 0)
            return !line.empty(); // deliver a final unterminated line
        buf_.assign(chunk, static_cast<std::size_t>(n));
    }
}

void
Socket::writeAll(const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("write");
        }
        off += static_cast<std::size_t>(n);
    }
}

void
Socket::shutdownWrite()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_WR);
}

Listener::~Listener()
{
    close();
}

Listener::Listener(Listener &&other) noexcept
    : fd_(other.fd_), ownsPath_(other.ownsPath_),
      endpoint_(std::move(other.endpoint_))
{
    other.fd_ = -1;
    other.ownsPath_ = false;
}

Listener &
Listener::operator=(Listener &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        ownsPath_ = other.ownsPath_;
        endpoint_ = std::move(other.endpoint_);
        other.fd_ = -1;
        other.ownsPath_ = false;
    }
    return *this;
}

void
Listener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
        // Only unlink a path this listener actually bound: a listenOn
        // that failed because another server lives at the path must
        // not take that server's socket down with it.
        if (ownsPath_ && !endpoint_.tcp && !endpoint_.path.empty())
            ::unlink(endpoint_.path.c_str());
        ownsPath_ = false;
    }
}

Listener
Listener::listenOn(const Endpoint &ep)
{
    Listener l;
    l.endpoint_ = ep;
    if (ep.tcp) {
        l.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (l.fd_ < 0)
            throwErrno("socket");
        const int one = 1;
        ::setsockopt(l.fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr = tcpAddr(ep);
        if (::bind(l.fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0)
            throwErrno("bind " + ep.text());
        // Recover the kernel-chosen port for port 0.
        socklen_t len = sizeof(addr);
        if (::getsockname(l.fd_, reinterpret_cast<sockaddr *>(&addr),
                          &len) != 0)
            throwErrno("getsockname");
        l.endpoint_.port = ntohs(addr.sin_port);
    } else {
        l.fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (l.fd_ < 0)
            throwErrno("socket");
        // A stale path from a crashed server blocks bind; connect() to
        // tell a live server from debris, refuse to displace the live
        // one.
        sockaddr_un addr = unixAddr(ep);
        if (::bind(l.fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            if (errno != EADDRINUSE)
                throwErrno("bind " + ep.path);
            const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
            const bool live =
                probe >= 0 &&
                ::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0;
            if (probe >= 0)
                ::close(probe);
            if (live) {
                throw std::runtime_error("endpoint " + ep.path +
                                         " already has a live server");
            }
            ::unlink(ep.path.c_str());
            if (::bind(l.fd_, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr)) != 0)
                throwErrno("bind " + ep.path);
        }
        l.ownsPath_ = true;
    }
    if (::listen(l.fd_, 64) != 0)
        throwErrno("listen " + ep.text());
    return l;
}

Socket
Listener::accept(int timeoutMs)
{
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, timeoutMs);
    if (rc < 0) {
        if (errno == EINTR)
            return Socket();
        throwErrno("poll");
    }
    if (rc == 0)
        return Socket();
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN)
            return Socket();
        throwErrno("accept");
    }
    return Socket(fd);
}

Socket
connectTo(const Endpoint &ep)
{
    int fd = -1;
    if (ep.tcp) {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            throwErrno("socket");
        sockaddr_in addr = tcpAddr(ep);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            const int err = errno;
            ::close(fd);
            errno = err;
            throwErrno("connect " + ep.text());
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    } else {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            throwErrno("socket");
        sockaddr_un addr = unixAddr(ep);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            const int err = errno;
            ::close(fd);
            errno = err;
            throwErrno("connect " + ep.path);
        }
    }
    return Socket(fd);
}

} // namespace serve
} // namespace sst
