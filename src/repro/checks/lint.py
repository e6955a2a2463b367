"""AST lint pass for the determinism contract (rules R001, R002, R004).

The repo's load-bearing invariant — every parallel/adaptive/scenario
path is bitwise identical to its serial counterpart — survives only as
long as every random draw flows from the spec's root seed through the
tagged derivation streams of :mod:`repro.sim.rng`.  These rules reject
the source patterns that break that chain *before* a property test has
to catch the (often statistically invisible) consequence:

* **R001 — no ambient randomness outside ``sim/rng.py``.**  Calls to the
  global ``numpy.random`` draw functions (``np.random.normal``,
  ``np.random.seed``, ...), the stdlib ``random`` module, ``os.urandom``
  / ``secrets`` / ``uuid``, and wall-clock values
  (``time.time()``, ``datetime.now()``) fed into seed derivation.  Any
  of these makes results depend on process history instead of the spec.
* **R002 — engine/runner Generators must be seeded from derived
  values.**  In engine and runner code (``sim/``, ``sweep/``), a
  ``default_rng()`` / ``make_rng()`` call with no seed (or an explicit
  ``None``) draws fresh OS entropy: bitwise-unreproducible by
  construction.
* **R004 — worker/executor state must not flow into seed derivation or
  hashed spec fields.**  Passing ``workers``/``backend``/pool objects —
  or ``hosts``/``port``/endpoint values — to
  ``derive_seed``/``derive_rng``/``spawn_seeds`` or into ``SweepSpec``
  field values makes *results* depend on execution *layout* — the exact
  inversion of PR 5's layout-is-spec-only rule, and the way a "2x faster
  on 8 cores" (or "same sweep, different host list") change silently
  forks the cache.

A finding on a line that genuinely needs the pattern (a fixture, a
deliberate nondeterminism probe) is suppressed with a trailing
``# repro: allow(R00x)`` comment.  Rule R003 (stream-tag registration)
is cross-file and lives in :mod:`repro.checks.streams`; R005 (spec hash
manifest) in :mod:`repro.checks.manifest`.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence

from .findings import Finding

__all__ = ["lint_file", "lint_tree", "iter_python_files"]

#: numpy.random attributes that are seedable constructors/types rather
#: than draws from the ambient global generator.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Functions that consume a seed-like argument (R001's wall-clock check
#: inspects their argument expressions).
_SEED_CONSUMERS = frozenset(
    {
        "make_rng",
        "derive_rng",
        "derive_seed",
        "spawn_seeds",
        "spawn_rngs",
        "default_rng",
        "SeedSequence",
    }
)

#: Seed-derivation entry points guarded by R004.
_SEED_DERIVERS = frozenset(
    {"derive_seed", "derive_rng", "spawn_seeds", "spawn_rngs"}
)

#: Wall-clock / entropy calls that must never feed a seed expression.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "os.urandom",
        "os.getrandom",
    }
)

#: Identifiers that smell like execution layout (R004): none of these
#: may appear inside a seed-derivation argument or a SweepSpec field.
#: The second group covers hosts and network endpoints: where a sweep
#: runs is layout too, and a host list in a spec would fork the cache
#: per machine, whichever backend reads it.  The third group covers
#: observability (``repro.obs``): traces, metrics, and spans describe
#: *how* a run executed — wall-clock, scheduling, worker identity — and
#: feeding any of it back into seeds or spec fields would make results
#: depend on machine speed and load.  The fourth group covers fault tolerance
#: (``repro.faults``): fault plans, retry/backoff state, degradation
#: tiers, and checkpoint/resume bookkeeping describe what *failed*
#: during a run — seeding from any of it would fork results between
#: faulted and clean executions, the exact dependence the chaos-parity
#: suite exists to rule out.
_TAINTED_NAMES = frozenset(
    {
        "workers",
        "n_workers",
        "num_workers",
        "nworkers",
        "worker_count",
        "max_workers",
        "backend",
        "executor",
        "pool",
        "hosts",
        "host",
        "hostname",
        "port",
        "ports",
        "address",
        "addresses",
        "endpoint",
        "endpoints",
        "slots",
        "trace",
        "tracer",
        "traces",
        "metrics",
        "metric",
        "span",
        "spans",
        "sink",
        "sinks",
        "bus",
        "event_bus",
        "obs",
        "profiler",
        "utilization",
        "fault",
        "faults",
        "fault_plan",
        "injector",
        "degrade",
        "degraded",
        "quarantine",
        "quarantined",
        "resume",
        "resumed",
        "checkpoint",
        "journal",
        "retry",
        "retries",
        "backoff",
    }
)

#: Directories (relative to the package root) whose Generator
#: constructions R002 polices.
_ENGINE_SCOPES = ("sim/", "sweep/")

#: The one module allowed to touch numpy's RNG machinery directly.
_RNG_MODULE = "sim/rng.py"

_ALLOW_MARK = "repro: allow("


def iter_python_files(root: str, exclude: Sequence[str] = ()) -> List[str]:
    """All ``.py`` files under ``root``, sorted, minus excluded subpaths.

    ``exclude`` entries are path fragments matched against the
    root-relative POSIX path (``"fixtures/checks"`` skips the seeded
    violation corpus).
    """
    found: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        rel_dir = os.path.relpath(dirpath, root).replace(os.sep, "/")
        rel_dir = "" if rel_dir == "." else rel_dir + "/"
        if any(fragment in rel_dir for fragment in exclude):
            dirnames[:] = []
            continue
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            rel = rel_dir + name
            if any(fragment in rel for fragment in exclude):
                continue
            found.append(os.path.join(dirpath, name))
    return found


def _relative_path(path: str) -> str:
    """Best-effort path relative to the ``repro`` package root.

    Rule scoping (R002's engine dirs, the ``sim/rng.py`` exemption) keys
    off this; files outside the package fall back to their basename,
    which disables the directory-scoped rules — exactly right for test
    and example code.
    """
    parts = os.path.abspath(path).replace(os.sep, "/").split("/")
    for anchor in range(len(parts) - 1, -1, -1):
        if parts[anchor] == "repro":
            return "/".join(parts[anchor + 1:])
    return parts[-1]


class _Aliases:
    """Import-resolved canonical names for the current module."""

    def __init__(self) -> None:
        #: local name -> canonical dotted prefix ("np" -> "numpy").
        self.names: Dict[str, str] = {}

    def collect(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.names[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.names:
                module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    if node.level:
                        # Relative import: canonicalise only the last
                        # module segment ("..sim.rng" -> "sim.rng").
                        self.names[local] = f"{module}.{alias.name}" if module else alias.name
                    else:
                        self.names[local] = f"{module}.{alias.name}"

    def dotted(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a call target, or ``None``."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.names.get(node.id, node.id))
        return ".".join(reversed(parts))


def _last_segment(dotted: str) -> str:
    return dotted.rsplit(".", 1)[-1]


def _seed_argument_nodes(call: ast.Call) -> Iterable[ast.AST]:
    for arg in call.args:
        yield arg
    for keyword in call.keywords:
        yield keyword.value


class _Linter(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        relpath: str,
        aliases: _Aliases,
        source_lines: Sequence[str],
    ) -> None:
        self.path = path
        self.relpath = relpath
        self.aliases = aliases
        self.source_lines = source_lines
        self.findings: List[Finding] = []
        self.is_rng_module = relpath.endswith(_RNG_MODULE)
        self.in_engine_scope = relpath.startswith(_ENGINE_SCOPES)

    # -- plumbing ------------------------------------------------------
    def _suppressed(self, node: ast.AST, rule: str) -> bool:
        line = getattr(node, "lineno", 0)
        if not 1 <= line <= len(self.source_lines):
            return False
        text = self.source_lines[line - 1]
        return f"{_ALLOW_MARK}{rule})" in text

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        if self._suppressed(node, rule):
            return
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    # -- rules ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.aliases.dotted(node.func)
        if dotted is not None:
            if not self.is_rng_module:
                self._check_ambient(node, dotted)
                self._check_fresh_entropy(node, dotted)
            self._check_layout_taint(node, dotted)
        self.generic_visit(node)

    def _check_ambient(self, node: ast.Call, dotted: str) -> None:
        """R001: draws from process-global or OS randomness."""
        if (
            dotted.startswith("numpy.random.")
            and _last_segment(dotted) not in _NP_RANDOM_ALLOWED
        ):
            self._report(
                node,
                "R001",
                f"ambient numpy.random draw `{dotted}` — route randomness "
                f"through repro.sim.rng (make_rng/derive_rng)",
            )
        elif dotted == "random" or dotted.startswith("random."):
            self._report(
                node,
                "R001",
                f"stdlib random call `{dotted}` — route randomness through "
                f"repro.sim.rng",
            )
        elif dotted.startswith(("secrets.", "uuid.uuid")) or dotted in (
            "os.urandom",
            "os.getrandom",
        ):
            self._report(
                node,
                "R001",
                f"OS entropy call `{dotted}` has no place in a "
                f"deterministic simulation",
            )
        if _last_segment(dotted) in _SEED_CONSUMERS:
            for argument in _seed_argument_nodes(node):
                for sub in ast.walk(argument):
                    if not isinstance(sub, ast.Call):
                        continue
                    sub_dotted = self.aliases.dotted(sub.func)
                    if sub_dotted in _CLOCK_CALLS:
                        self._report(
                            node,
                            "R001",
                            f"seed derived from wall clock/OS entropy "
                            f"(`{sub_dotted}` inside `{dotted}(...)`): "
                            f"results would depend on when the run started",
                        )

    def _check_fresh_entropy(self, node: ast.Call, dotted: str) -> None:
        """R002: unseeded Generator construction in engine/runner code."""
        if not self.in_engine_scope:
            return
        last = _last_segment(dotted)
        if last not in ("default_rng", "make_rng"):
            return
        if last == "default_rng" and not (
            dotted == "default_rng" or dotted.startswith("numpy.random.")
        ):
            return
        seed_nodes = list(node.args[:1]) + [
            kw.value for kw in node.keywords if kw.arg == "seed"
        ]
        if not seed_nodes:
            self._report(
                node,
                "R002",
                f"`{dotted}()` without a seed draws fresh OS entropy in "
                f"engine/runner code; feed it a "
                f"derive_seed/derive_rng/spawn_seeds-derived value",
            )
            return
        first = seed_nodes[0]
        if isinstance(first, ast.Constant) and first.value is None:
            self._report(
                node,
                "R002",
                f"`{dotted}(None)` is fresh OS entropy in engine/runner "
                f"code; feed it a derived seed",
            )

    def _check_layout_taint(self, node: ast.Call, dotted: str) -> None:
        """R004: execution layout flowing into seeds or spec fields."""
        last = _last_segment(dotted)
        if last in _SEED_DERIVERS:
            target = "seed derivation"
        elif last == "SweepSpec":
            target = "hashed SweepSpec field"
        else:
            return
        for argument in _seed_argument_nodes(node):
            for sub in ast.walk(argument):
                name: Optional[str] = None
                if isinstance(sub, ast.Name) and sub.id in _TAINTED_NAMES:
                    name = sub.id
                elif (
                    isinstance(sub, ast.Attribute)
                    and sub.attr in _TAINTED_NAMES
                ):
                    name = sub.attr
                if name is not None:
                    self._report(
                        node,
                        "R004",
                        f"executor/worker state `{name}` flows into "
                        f"{target} via `{dotted}(...)`: results must "
                        f"depend on the spec alone, never the execution "
                        f"layout (see DESIGN.md §8)",
                    )


def lint_file(
    path: str,
    text: Optional[str] = None,
    relpath: Optional[str] = None,
) -> List[Finding]:
    """Lint one file; ``relpath`` overrides the rule-scoping path.

    Passing an explicit ``relpath`` (e.g. ``"sim/fake_engine.py"``) lets
    fixture tests exercise directory-scoped rules on files that live
    elsewhere.
    """
    if text is None:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                path=path,
                line=error.lineno or 0,
                col=error.offset or 0,
                rule="R000",
                message=f"syntax error: {error.msg}",
            )
        ]
    aliases = _Aliases()
    aliases.collect(tree)
    linter = _Linter(
        path,
        relpath if relpath is not None else _relative_path(path),
        aliases,
        text.splitlines(),
    )
    linter.visit(tree)
    return linter.findings


def lint_tree(
    root: str, exclude: Sequence[str] = ()
) -> List[Finding]:
    """Lint every Python file under ``root`` (R001/R002/R004)."""
    findings: List[Finding] = []
    for path in iter_python_files(root, exclude):
        findings.extend(lint_file(path))
    return findings
