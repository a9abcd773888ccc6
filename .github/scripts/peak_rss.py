"""Run the pcring CLI under a timeout; fail unless it exits 0 below a peak RSS.

    PYTHONPATH=src python .github/scripts/peak_rss.py LIMIT_MB TIMEOUT_S CLI_ARG...

The CLI runs as ``timeout TIMEOUT_S python -m pcring.cli CLI_ARG...``, with
``PYTHONWARNDEFAULTENCODING=1`` and ``PYTHONWARNINGS=error::EncodingWarning``,
so a text file opened without an explicit encoding, whose decoding would
depend on the locale, fails the run as well.
ru_maxrss from wait4 on ``timeout`` covers its child, the CLI, as well.
"""

import os
import sys


def main(argv: list[str]) -> int:
    limit_mb, timeout_s, *cli_args = argv
    command = ["timeout", timeout_s, sys.executable, "-m", "pcring.cli", *cli_args]
    env = dict(os.environ, PYTHONWARNDEFAULTENCODING="1",
               PYTHONWARNINGS="error::EncodingWarning")
    pid = os.spawnvpe(os.P_NOWAIT, command[0], command, env)
    _, status, usage = os.wait4(pid, 0)
    code, rss_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
    print(f"exit {code}, peak RSS {rss_mb:.0f} MB")
    return 0 if code == 0 and rss_mb < float(limit_mb) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
