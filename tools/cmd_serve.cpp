// `dvs_sim serve <dir>`: the long-running job-queue daemon (src/serve/).
// Jobs are dvs-job-v1 JSON files dropped into <dir>/queue/; see
// docs/SERVING.md for the queue lifecycle and checkpoint semantics.
#include <cstdio>
#include <string>

#include "cli_common.hpp"
#include "serve/daemon.hpp"

namespace dvs::cli {

int cmd_serve(int argc, char** argv, int first) {
  serve::DaemonOptions opts;
  auto need = [&](int i) -> const char* {
    if (i + 1 >= argc) usage("missing argument value");
    return argv[i + 1];
  };
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (!a.empty() && a[0] != '-') {
      if (!opts.root.empty()) usage("serve takes one queue directory");
      opts.root = a;
    }
    else if (a == "--jobs") { opts.jobs = parse_number<int>(a, need(i), 0); ++i; }
    else if (a == "--poll-ms") { opts.poll_ms = parse_number<int>(a, need(i), 1); ++i; }
    else if (a == "--drain") { opts.drain = true; }
    else if (a == "--max-jobs") {
      opts.max_jobs = parse_number<std::uint64_t>(a, need(i)); ++i;
    }
    else if (a == "--help" || a == "-h") { usage("help requested"); }
    else { usage(("unknown serve option " + a).c_str()); }
  }
  if (opts.root.empty()) {
    usage("serve needs a queue directory (dvs_sim serve <dir>)");
  }
  return serve::run_daemon(opts);
}

}  // namespace dvs::cli
