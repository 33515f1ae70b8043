#include "sim/tcp_backend.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <sstream>

#include "sim/subprocess_backend.hpp"
#include "util/contracts.hpp"

namespace ffsm {

// ------------------------------------------------- ListenerWorkerProcess

ListenerWorkerProcess::ListenerWorkerProcess()
    : ListenerWorkerProcess(Options()) {}

ListenerWorkerProcess::ListenerWorkerProcess(Options options) {
  const std::string path = discover_worker_path(options.worker_path);
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0)
    throw ContractViolation("ListenerWorkerProcess: pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    throw ContractViolation("ListenerWorkerProcess: fork failed");
  }
  if (pid == 0) {
    // Child: stdout carries the `listening <port>` banner; the protocol
    // itself runs over accepted connections.
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const std::string port_arg = std::to_string(options.port);
    ::execlp(path.c_str(), "ffsm_shard_worker", "--listen", port_arg.c_str(),
             static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed; the parent sees EOF on the banner pipe
  }
  ::close(out_pipe[1]);
  pid_ = static_cast<int>(pid);

  std::string banner;
  for (;;) {
    char c = 0;
    const ssize_t n = ::read(out_pipe[0], &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || c == '\n') break;
    banner += c;
  }
  ::close(out_pipe[0]);

  std::istringstream words(banner);
  std::string directive;
  unsigned port = 0;
  if (!(words >> directive >> port) || directive != "listening" ||
      port == 0 || port > 65535) {
    kill();
    throw ContractViolation(
        "ListenerWorkerProcess: worker did not report a listening port "
        "(got '" + banner + "'; is '" + path + "' an ffsm_shard_worker?)");
  }
  port_ = static_cast<std::uint16_t>(port);
}

void ListenerWorkerProcess::kill() noexcept {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = 0;
  }
}

}  // namespace ffsm
