#include "serve/socket_io.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace eip::serve {

namespace {

/** Fill @p addr for @p path; false when the path does not fit the
 *  fixed-size sun_path field (108 bytes on Linux). */
bool
unixAddress(const std::string &path, sockaddr_un &addr, std::string *error)
{
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "socket path empty or too long: '" + path + "'";
        return false;
    }
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

std::string
errnoText(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

} // namespace

int
listenUnix(const std::string &path, std::string *error)
{
    sockaddr_un addr;
    if (!unixAddress(path, addr, error))
        return -1;

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = errnoText("socket");
        return -1;
    }
    // A stale socket file from a dead daemon would make bind fail with
    // EADDRINUSE even though nobody is listening.
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        if (error)
            *error = errnoText("bind");
        ::close(fd);
        return -1;
    }
    if (::listen(fd, 64) != 0) {
        if (error)
            *error = errnoText("listen");
        ::close(fd);
        ::unlink(path.c_str());
        return -1;
    }
    return fd;
}

int
connectUnix(const std::string &path, std::string *error)
{
    sockaddr_un addr;
    if (!unixAddress(path, addr, error))
        return -1;

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = errnoText("socket");
        return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (error)
            *error = "connect '" + path + "': " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendLine(int fd, const std::string &line)
{
    std::string framed = line;
    framed.push_back('\n');
    size_t sent = 0;
    while (sent < framed.size()) {
        ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

bool
LineReader::readLine(std::string &out)
{
    size_t scanned = 0; // bytes already searched for the newline
    for (;;) {
        size_t newline = buffer_.find('\n', scanned);
        const size_t length =
            newline == std::string::npos ? buffer_.size() : newline;
        if (maxLine_ != 0 && length > maxLine_) {
            overflowed_ = true;
            buffer_.clear();
            return false;
        }
        if (newline != std::string::npos) {
            out.assign(buffer_, 0, newline);
            buffer_.erase(0, newline + 1);
            return true;
        }
        scanned = buffer_.size();
        char chunk[4096];
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        buffer_.append(chunk, static_cast<size_t>(n));
    }
}

} // namespace eip::serve
