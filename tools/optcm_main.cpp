// optcm — command-line driver for the library (see optcm_cli.h).

#include "optcm_cli.h"

int main(int argc, char** argv) { return dsm::cli::cli_main(argc, argv); }
