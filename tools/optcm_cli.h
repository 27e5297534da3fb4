// optcm — the command-line driver, as a library so that tests can check how
// a command line is validated without running anything.

#pragma once

namespace dsm::cli {

/// The whole CLI: validate argv (argv[0] is the program) against the flag
/// table and the command's own checks, then — unless --dry-run is given — do
/// the work.  Returns the exit code: 2 for a rejected command line, after
/// printing the error and the usage on stderr; otherwise the command's own
/// code.
int cli_main(int argc, const char* const* argv);

}  // namespace dsm::cli
