"""``python -m ledger selftest``: the tests under ``ledger/tests`` without
needing pytest (they are plain functions with plain asserts)."""

from __future__ import annotations

import importlib
import os
import time
import traceback


def run_all() -> int:
    directory = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tests")
    failures = 0
    count = 0
    started = time.perf_counter()
    for filename in sorted(os.listdir(directory)):
        if not (filename.startswith("test_") and filename.endswith(".py")):
            continue
        module = importlib.import_module(f"ledger.tests.{filename[:-3]}")
        for name in sorted(vars(module)):
            test = getattr(module, name)
            if not (name.startswith("test_") and callable(test)):
                continue
            count += 1
            try:
                test()
                print(f"ok    {filename}::{name}")
            except Exception:
                failures += 1
                print(f"FAIL  {filename}::{name}")
                traceback.print_exc()
    elapsed = time.perf_counter() - started
    print(f"{count - failures} passed, {failures} failed in {elapsed:.1f}s")
    return 1 if failures else 0
