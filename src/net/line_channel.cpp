#include "net/line_channel.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cstring>

namespace ffsm::net {

void LineChannel::shutdown_io() noexcept {
  // ENOTSOCK on pipes/ttys is fine — only socket channels need the wakeup.
  if (read_fd_ >= 0) ::shutdown(read_fd_, SHUT_RDWR);
  if (write_fd_ >= 0 && write_fd_ != read_fd_)
    ::shutdown(write_fd_, SHUT_RDWR);
}

bool LineChannel::read_exact_until(char* dst, std::size_t count,
                                   const Deadline* deadline) {
  FFSM_EXPECTS(valid());
  std::size_t have = 0;
  if (!buffer_.empty()) {
    have = std::min(count, buffer_.size());
    std::memcpy(dst, buffer_.data(), have);
    buffer_.erase(0, have);
  }
  while (have < count) {
    const std::size_t n =
        deadline != nullptr
            ? recv_some(read_fd_, dst + have, count - have, *deadline)
            : recv_some(read_fd_, dst + have, count - have);
    if (n == 0) {
      if (have > 0)
        throw NetError("peer closed the stream mid-read (torn message)");
      return false;  // clean EOF before the first byte
    }
    have += n;
  }
  return true;
}

bool LineChannel::read_exact(char* dst, std::size_t count) {
  return read_exact_until(dst, count, nullptr);
}

bool LineChannel::read_exact(char* dst, std::size_t count,
                             Deadline deadline) {
  return read_exact_until(dst, count, &deadline);
}

bool LineChannel::read_line_until(std::string& line,
                                  const Deadline* deadline) {
  FFSM_EXPECTS(valid());
  for (;;) {
    const auto pos = buffer_.find('\n');
    if (pos != std::string::npos) {
      line.assign(buffer_, 0, pos);
      buffer_.erase(0, pos + 1);
      return true;
    }
    char chunk[4096];
    const std::size_t n =
        deadline != nullptr
            ? recv_some(read_fd_, chunk, sizeof(chunk), *deadline)
            : recv_some(read_fd_, chunk, sizeof(chunk));
    if (n == 0) {
      if (!buffer_.empty())
        throw NetError("peer closed the stream mid-line (torn message)");
      return false;  // clean EOF at a line boundary
    }
    buffer_.append(chunk, n);
  }
}

bool LineChannel::read_line(std::string& line) {
  return read_line_until(line, nullptr);
}

bool LineChannel::read_line(std::string& line, Deadline deadline) {
  return read_line_until(line, &deadline);
}

std::string LineChannel::expect_line_until(const char* context,
                                           const Deadline* deadline) {
  std::string line;
  if (!read_line_until(line, deadline))
    throw NetError(std::string("peer closed the stream during ") + context);
  return line;
}

std::string LineChannel::expect_line(const char* context) {
  return expect_line_until(context, nullptr);
}

std::string LineChannel::expect_line(const char* context, Deadline deadline) {
  return expect_line_until(context, &deadline);
}

}  // namespace ffsm::net
