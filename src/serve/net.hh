/**
 * @file
 * Minimal blocking socket layer for the experiment service: an
 * endpoint grammar shared by server and clients ("tcp:host:port" or a
 * Unix-domain socket path), RAII wrappers over listen/accept/connect,
 * and bounded line-oriented reads matching the one-request-per-
 * connection protocol (serve/protocol.hh).
 *
 * Unix-domain sockets are the default transport (CI and single-host
 * use); TCP is for workers on other hosts. Both speak the identical
 * byte stream, so everything above this layer is transport-blind.
 */

#ifndef SST_SERVE_NET_HH
#define SST_SERVE_NET_HH

#include <cstddef>
#include <string>

namespace sst {
namespace serve {

/** Where a service listens: `tcp:host:port` or a Unix socket path. */
struct Endpoint
{
    bool tcp = false;
    std::string path;               ///< Unix socket path (!tcp)
    std::string host = "127.0.0.1"; ///< TCP host (tcp)
    int port = 0;                   ///< TCP port (tcp)

    /** Render back to the text form parseEndpoint() accepts. */
    std::string text() const;
};

/**
 * Parse an endpoint: "tcp:HOST:PORT" (or "tcp:PORT" for localhost),
 * anything else is a Unix-domain socket path. Throws
 * std::invalid_argument.
 */
Endpoint parseEndpoint(const std::string &text);

/**
 * One connected stream socket (move-only). Reads are buffered and
 * line-oriented; writes are full-buffer blocking writes. I/O errors
 * throw std::runtime_error — connections are cheap and per-request, so
 * callers retry at the request level, not the byte level.
 */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket();

    Socket(Socket &&other) noexcept;
    Socket &operator=(Socket &&other) noexcept;
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    bool valid() const { return fd_ >= 0; }

    /**
     * Read one '\n'-terminated line (newline stripped) into @p line.
     * Returns false on clean EOF before any byte; a line at EOF
     * without its newline is still delivered. Lines are bounded (16
     * MiB) so a misbehaving peer can't balloon memory.
     */
    bool readLine(std::string &line);

    /** Write the whole buffer, throwing on any short/failed write. */
    void writeAll(const std::string &data);

    /** Shut down the write side so the peer sees EOF after a stream. */
    void shutdownWrite();

    void close();

  private:
    int fd_ = -1;
    std::string buf_;   ///< bytes read past the last returned line
    std::size_t pos_ = 0;
};

/** A listening socket (Unix or TCP). Move-only. */
class Listener
{
  public:
    Listener() = default;
    ~Listener();

    Listener(Listener &&other) noexcept;
    Listener &operator=(Listener &&other) noexcept;
    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /** Bind + listen. Throws std::runtime_error on failure. */
    static Listener listenOn(const Endpoint &ep);

    bool valid() const { return fd_ >= 0; }

    /** The bound endpoint; for TCP port 0 this has the real port. */
    const Endpoint &endpoint() const { return endpoint_; }

    /**
     * Wait up to @p timeoutMs for a connection. Returns an invalid
     * Socket on timeout (poll again) and throws on hard errors.
     */
    Socket accept(int timeoutMs);

    /** Close the socket; unlinks the path for Unix listeners whose
     *  bind succeeded (a failed listenOn never unlinks — the path may
     *  belong to a live server). */
    void close();

  private:
    int fd_ = -1;
    bool ownsPath_ = false; ///< we bound the Unix path; close() unlinks
    Endpoint endpoint_;
};

/**
 * Connect to @p ep. Throws std::runtime_error if the service is not
 * reachable (callers own their retry policy).
 */
Socket connectTo(const Endpoint &ep);

} // namespace serve
} // namespace sst

#endif // SST_SERVE_NET_HH
