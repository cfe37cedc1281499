/**
 * @file
 * Unix-domain socket transport shared by the eipd daemon and the eipc
 * client: listen/connect on a filesystem path, and line-oriented I/O
 * matching the NDJSON framing of the eip-serve/v1 protocol. All sends
 * use MSG_NOSIGNAL so a peer hanging up surfaces as an error return,
 * never as SIGPIPE.
 */

#ifndef EIP_SERVE_SOCKET_IO_HH
#define EIP_SERVE_SOCKET_IO_HH

#include <cstddef>
#include <string>

namespace eip::serve {

/** Bind + listen on @p path (unlinking a stale socket first). Returns
 *  the listening fd, or -1 with a diagnostic in @p error. */
int listenUnix(const std::string &path, std::string *error);

/** Connect to the daemon at @p path. Returns the connected fd, or -1
 *  with a diagnostic in @p error. */
int connectUnix(const std::string &path, std::string *error);

/** Send @p line plus the terminating newline, looping over partial
 *  writes. False when the peer is gone. */
bool sendLine(int fd, const std::string &line);

/** Buffered reader turning a stream socket back into protocol lines. */
class LineReader
{
  public:
    /** @p max_line caps a line's length in bytes; 0 is no cap. */
    explicit LineReader(int fd, size_t max_line = 0)
        : fd_(fd), maxLine_(max_line) {}

    /** Next newline-terminated line (newline stripped). False on EOF,
     *  a read error, or a line past the cap (then overflowed()); a
     *  trailing unterminated fragment is dropped (a half-written
     *  request is not a request). */
    bool readLine(std::string &out);

    /** A readLine() stopped at the cap; the stream has lost its
     *  framing, so the caller should hang up. */
    bool overflowed() const { return overflowed_; }

  private:
    int fd_;
    size_t maxLine_;
    bool overflowed_ = false;
    std::string buffer_;
};

} // namespace eip::serve

#endif // EIP_SERVE_SOCKET_IO_HH
