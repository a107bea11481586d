"""``python -m repro.service``: run the sweep-service daemon.

Usage::

    python -m repro.service --socket /tmp/repro.sock \
        [--jobs N] [--cache-dir DIR] [--no-cache] \
        [--checkpoint-every CYCLES] [--checkpoint-dir DIR] [--verbose]

The daemon serves the newline-delimited JSON protocol documented in
:mod:`repro.service.daemon` until a ``shutdown`` request (or SIGINT /
SIGTERM).  With the checkpoint knobs set, tasks killed mid-run (daemon
crash, SIGKILL) leave resumable checkpoints behind; the next daemon on
the same ``--checkpoint-dir`` resumes them bit-identically.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
from typing import Optional, Sequence

from ..parallel.runner import DEFAULT_CACHE_DIR
from .daemon import ServiceDaemon
from .jobs import ServiceConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=(
            "Long-running sweep service: accepts jobs over a local socket, "
            "dedupes tasks against the shared result cache, coalesces "
            "identical in-flight tasks across jobs, and (optionally) "
            "checkpoints running kernels so interrupted tasks resume "
            "instead of restarting."
        ),
    )
    parser.add_argument(
        "--socket", required=True, metavar="PATH", help="Unix socket to listen on"
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="maximum concurrently executing tasks (default: 1)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"shared per-task result cache (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache (every submitted task runs)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="CYCLES",
        help=(
            "write a resumable kernel checkpoint every N executed cycles "
            "(default: 0, disabled; requires --checkpoint-dir)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir", default="", metavar="DIR",
        help="directory of the per-task checkpoint store",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="log accepted jobs and lifecycle events to stderr",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.checkpoint_every < 0:
        parser.error("--checkpoint-every must be >= 0")
    if args.checkpoint_every and not args.checkpoint_dir:
        parser.error("--checkpoint-every requires --checkpoint-dir")
    config = ServiceConfig(
        jobs=max(1, args.jobs),
        cache_dir=None if args.no_cache else args.cache_dir,
        checkpoint_every_cycles=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
    )
    daemon = ServiceDaemon(args.socket, config, quiet=not args.verbose)

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, daemon._shutdown.set)
        await daemon.run()

    asyncio.run(_run())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
