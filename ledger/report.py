"""Rendering and persistence of run records."""

from __future__ import annotations

import json
import os
import platform
import sqlite3
import subprocess
from typing import Any, Optional

from . import spec
from .runner import OUT_DIR

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _number(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


def render_record(record: dict[str, Any]) -> str:
    """Every metric of one run by name, with unit and sample count."""
    kind = "per-layer (traced)" if record["traced"] else "end-to-end"
    detail = record["detail"]
    lines = [
        f"== {record['workload']}  [{kind}]  seed={record['seed']} "
        f"seconds={record['seconds']:g} connections={record['connections']} "
        f"nproc={os.cpu_count()}",
        f"   timed op: {record['timed_op']}",
        f"   attempted={record['attempted']} failed={record['failed']} "
        f"failed_share={record['failed_share']:.4f} (ratio)  "
        f"{'CAPPED by --seconds  ' if record['capped'] else ''}"
        f"inputs sha256={record['digest'][:16]}",
    ]
    table = spec.PER_LAYER if record["traced"] else spec.END_TO_END
    for metric in table:
        value = record["metrics"].get(metric.name)
        note = ""
        if metric.name in ("latency_p50_ms", "latency_p95_ms"):
            note = f"  n={detail['samples']}"
            if metric.name == "latency_p95_ms" and not detail["p95_supported"]:
                note += " (fewer than 10 samples beyond: not a percentile yet)"
        lines.append(f"   {metric.name:<32} {_number(value):>12} {metric.unit}{note}")
    if not record["traced"]:
        lines.append(
            f"   {'latency_p99_ms (detail)':<32} {_number(detail['latency_p99_ms']):>12} ms"
            f"  n={detail['samples']}"
        )
    if record.get("missing_hooks"):
        lines.append("   missing_hooks: " + ", ".join(record["missing_hooks"]))
    if record.get("trace_file"):
        lines.append(f"   trace: {record['trace_file']}")
    return "\n".join(lines)


def _git_sha() -> Optional[str]:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _sqlite_defaults() -> dict[str, Any]:
    """``journal_mode`` / ``synchronous`` exactly as the library opens them."""
    import tempfile

    found: dict[str, Any] = {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        try:
            from repro import Testbed, TestbedConfig
            from repro.server import SessionPool

            with Testbed() as testbed:
                found["testbed_memory"] = _pragmas(testbed)
            with Testbed(TestbedConfig(path=os.path.join(scratch, "t.sqlite"))) as testbed:
                found["testbed_file"] = _pragmas(testbed)
            with SessionPool(os.path.join(scratch, "p.sqlite"), readers=1) as pool:
                found["server_writer"] = _pragmas(pool.writer)
        except Exception as error:  # meta only: never fail a run over it
            found["unreadable"] = f"{type(error).__name__}: {error}"
    return found


def _pragmas(testbed: Any) -> dict[str, Any]:
    database = testbed.database
    return {
        "journal_mode": database.observe("PRAGMA journal_mode")[0][0],
        "synchronous": database.observe("PRAGMA synchronous")[0][0],
    }


def meta(seed: Optional[int], seconds: float) -> dict[str, Any]:
    os.makedirs(OUT_DIR, exist_ok=True)
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "sqlite_defaults": _sqlite_defaults(),
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "load_model": "closed loop, zero think time, one generator process, "
                      "one persistent connection per thread",
    }


def ledger_document(records: list[dict[str, Any]], seed: int, seconds: float) -> dict[str, Any]:
    """The committed form of a full run: meta, digests, every metric."""
    workloads: dict[str, Any] = {}
    for record in records:
        entry = workloads.setdefault(
            record["workload"],
            {"digest": record["digest"], "timed_op": record["timed_op"],
             "connections": record["connections"]},
        )
        key = "per_layer" if record["traced"] else "end_to_end"
        entry[key] = record["metrics"]
        entry[key + "_run"] = {
            "attempted": record["attempted"],
            "failed": record["failed"],
            "failed_share": record["failed_share"],
            "seconds": record["seconds"],
            "capped": record["capped"],
            **record["detail"],
        }
        if record["traced"]:
            entry["missing_hooks"] = record.get("missing_hooks", [])
    return {"meta": meta(seed, seconds), "workloads": workloads}


def write_json(document: dict[str, Any], path: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
