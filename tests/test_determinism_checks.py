"""Run-time checks of the two invariants a one-seed replay rests on.

Every artifact is reproduced from one integer seed, byte for byte.  That
holds while every ``derive_rng`` stream is derived at one place only, and
while every ``pmap`` worker is a pure function of what it is sent.  Three
checks watch those invariants on the real code:

* **Stream check.**  ``derive_rng`` is traced through a faulted ``repro
  all`` and a small Section VI run.  One ``(seed, labels)`` pair derived
  at two source lines is two components sharing one stream: every draw in
  one silently shifts the other.
* **Escape check.**  Every ``repro`` module is imported, and none may hold
  a live ``random.Random`` in a module global, a class attribute, or a
  default argument.  Such a generator is created once and shared by every
  caller, so draws depend on call order across the whole program.
* **Spawn-pool check.**  The two callables that reach a process pool
  (``_classify_page`` and ``descriptor_index_entries_batch``) run in pools
  that *spawn* their workers, and the result must equal the serial one.
  A forked worker inherits whatever the parent wrote to module state, so
  a worker reading such state passes under fork; a spawned worker gets
  only what it is sent.  Closures never pickle, so ``pmap`` runs them in
  the parent in shard order at every worker count: they need no check.
* **Hash-seed check.**  ``repro all`` runs in a child process under two
  ``PYTHONHASHSEED`` values and must print the ``all_small`` golden under
  both.  Source check REP005 sees only ``list(set(...))``-style spellings;
  this also catches hash order that leaks through a set held in a
  variable.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import importlib
import io
import multiprocessing
import os
import pathlib
import pkgutil
import random
import subprocess
import sys
import types
from typing import Dict, Iterator, List, Set, Tuple

import pytest

import repro
from repro.cli import main as cli_main
from repro.crypto.descriptor_id import descriptor_ids_for_window_batch
from repro.crypto.onion import onion_address_from_key
from repro.parallel.executor import pmap
from repro.popularity.resolver import DescriptorResolver
from repro.sim import rng as rng_module
from repro.sim.clock import parse_date
from tests.goldens.cases import ALL_SCALE, ALL_SEED, pipeline_artifacts, render_all

#: Where a derivation is charged: (source file, line).
Site = Tuple[str, int]
Stream = Tuple[int, Tuple[str, ...]]


def _site_of(frame: types.FrameType, labels: Tuple[str, ...]) -> Site:
    """The source line that chose the stream one ``derive_rng`` call makes.

    A label the deriving function received as a parameter, and that its
    caller spelled as a constant (``build_honest_network(...,
    rng_label="fig3-net")``), was chosen by the caller: the derivation is
    charged to the caller's line.  Every other derivation, labels built
    at run time included, is charged to its own line.
    """
    caller = frame.f_back
    if caller is not None:
        chosen = [label for label in labels if label in caller.f_code.co_consts]
        if chosen:
            code = frame.f_code
            params = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
            values = map(frame.f_locals.get, params)
            if {value for value in values if isinstance(value, str)} & set(chosen):
                return caller.f_code.co_filename, caller.f_lineno
    return frame.f_code.co_filename, frame.f_lineno


def _rebind(old: object, new: object) -> None:
    """Point every loaded module attribute that is ``old`` at ``new``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if value is old:
                setattr(module, name, new)


@contextlib.contextmanager
def traced_streams() -> Iterator[Dict[Stream, Set[Site]]]:
    """Record every ``derive_rng`` call as stream → the sites deriving it.

    Modules bind ``derive_rng`` by name at import, so the tracer replaces
    the function in every loaded module, and the original comes back in
    every module on exit, including modules first imported meanwhile.
    """
    original = rng_module.derive_rng
    streams: Dict[Stream, Set[Site]] = {}

    def traced(seed, *path):
        stream = (int(seed), tuple(path))
        streams.setdefault(stream, set()).add(_site_of(sys._getframe(1), path))
        return original(seed, *path)

    _rebind(original, traced)
    try:
        yield streams
    finally:
        _rebind(traced, original)


def collisions(streams: Dict[Stream, Set[Site]]) -> List[str]:
    """Every stream derived at more than one site, one line each."""
    return [
        f"{stream} derived at "
        + ", ".join(f"{path}:{line}" for path, line in sorted(sites))
        for stream, sites in sorted(streams.items())
        if len(sites) > 1
    ]


def _has_rng_default(function: types.FunctionType) -> bool:
    defaults = list(function.__defaults__ or ())
    defaults += (function.__kwdefaults__ or {}).values()
    return any(isinstance(default, random.Random) for default in defaults)


def escaped_rngs(module: types.ModuleType) -> List[str]:
    """Where ``module`` holds a ``random.Random`` that outlives a call.

    Module globals, class attributes, and the default arguments of
    module-level functions and of methods.  A nested function's defaults
    are made anew on every call of its parent, so they are not shared.
    """
    found = []
    for name, value in sorted(vars(module).items()):
        where = f"{module.__name__}.{name}"
        if isinstance(value, random.Random):
            found.append(where)
        elif isinstance(value, types.FunctionType):
            if value.__module__ == module.__name__ and _has_rng_default(value):
                found.append(f"{where} default")
        elif isinstance(value, type) and value.__module__ == module.__name__:
            for attr, member in sorted(vars(value).items()):
                member = getattr(member, "__func__", member)
                if isinstance(member, random.Random):
                    found.append(f"{where}.{attr}")
                elif isinstance(member, types.FunctionType) and _has_rng_default(
                    member
                ):
                    found.append(f"{where}.{attr} default")
    return found


def all_repro_modules() -> List[types.ModuleType]:
    """Every module of the ``repro`` package, imported (``__main__`` aside)."""
    return [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]


# -- fixtures for the checks' own tests ----------------------------------- #


def _two_sites(seed):
    first = rng_module.derive_rng(seed, "demo", "a")
    second = rng_module.derive_rng(seed, "demo", "a")
    return first, second


def _network(seed, rng_label="default-net"):
    return rng_module.derive_rng(seed, rng_label, "relays")


def _jitter(seed, onion, attempt):
    return rng_module.derive_rng(seed, "jitter", onion, str(attempt))


_PARENT_WRITTEN: Dict[str, int] = {}


def _scaled(value: int) -> int:
    """A pool worker reading module state the parent may have written."""
    return value * _PARENT_WRITTEN.get("factor", 1)


@pytest.fixture
def spawn_pools(monkeypatch) -> List[int]:
    """Process pools that spawn their workers; yields each pool's size.

    ``pmap`` looks ``concurrent.futures.ProcessPoolExecutor`` up when it
    opens a pool, so the substitution reaches it without any option.
    The recorded sizes let a check prove a pool really ran.
    """
    from concurrent.futures.process import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    opened: List[int] = []

    def spawning_pool(*args, **kwargs):
        opened.append(kwargs.get("max_workers"))
        return ProcessPoolExecutor(*args, mp_context=spawn, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawning_pool)
    return opened


class TestStreamCheck:
    def test_flags_one_stream_derived_at_two_lines(self):
        with traced_streams() as streams:
            _two_sites(5)
        (collision,) = collisions(streams)
        assert "(5, ('demo', 'a'))" in collision

    def test_charges_a_constant_parameter_label_to_its_caller(self):
        with traced_streams() as streams:
            _network(5, rng_label="shared-net")
            _network(5, rng_label="shared-net")
            _network(5, rng_label="own-net")
            _network(5)
        sites = streams[(5, ("shared-net", "relays"))]
        assert len(sites) == 2
        assert {path for path, _ in sites} == {__file__}
        assert len(collisions(streams)) == 1

    def test_distinct_labels_do_not_collide(self):
        with traced_streams() as streams:
            rng_module.derive_rng(5, "demo", "a")
            rng_module.derive_rng(5, "demo", "b")
            rng_module.derive_rng(6, "demo", "a")
        assert collisions(streams) == []

    def test_runtime_labels_stay_at_the_deriving_line(self):
        # Two callers handing the same run-time label to one helper reach
        # the same stream from one line: one site, not a collision.
        onion = "".join(["abc", "def"])
        with traced_streams() as streams:
            _jitter(5, onion, 1)
            _jitter(5, onion, 1)
        assert collisions(streams) == []

    def test_tracing_leaves_no_module_patched(self):
        from repro import worldbuild

        original = rng_module.derive_rng
        with traced_streams():
            assert worldbuild.derive_rng is rng_module.derive_rng is not original
        assert worldbuild.derive_rng is rng_module.derive_rng is original

    def test_repro_all_and_sec6_derive_each_stream_at_one_site(self, monkeypatch):
        from repro.experiments.sec6_sellers import run_sec6

        for name in ("REPRO_STORE", "REPRO_METRICS"):
            monkeypatch.delenv(name, raising=False)
        all_args = ["all", "--scale", "0.02", "--seed", "3"]
        all_args += ["--fault-profile", "moderate", "--workers", "1"]
        with traced_streams() as streams:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli_main(all_args) == 0
            run_sec6(
                seed=3,
                honest_relays=120,
                buyer_count=60,
                seller_count=5,
                observation_days=2,
            )
        sites = set().union(*streams.values())
        assert len(sites) >= 40, f"only {len(sites)} derivation sites traced"
        assert collisions(streams) == []


class TestEscapeCheck:
    def module(self, source: str = "") -> types.ModuleType:
        module = types.ModuleType("escape_demo")
        exec("from repro.sim.rng import derive_rng\n" + source, module.__dict__)
        return module

    def test_flags_module_global(self):
        module = self.module("spare = derive_rng(0, 'spare')\n")
        assert escaped_rngs(module) == ["escape_demo.spare"]

    def test_flags_class_attribute(self):
        module = self.module("class Holder:\n    rng = derive_rng(0, 'spare')\n")
        assert escaped_rngs(module) == ["escape_demo.Holder.rng"]

    def test_flags_default_arguments(self):
        module = self.module(
            "def positional(rng=derive_rng(0, 'a')):\n    return rng\n"
            "def keyword(*, rng=derive_rng(0, 'b')):\n    return rng\n"
            "class Worker:\n"
            "    def run(self, rng=derive_rng(0, 'c')):\n        return rng\n"
            "    @staticmethod\n"
            "    def helper(rng=derive_rng(0, 'd')):\n        return rng\n"
        )
        assert escaped_rngs(module) == [
            "escape_demo.Worker.helper default",
            "escape_demo.Worker.run default",
            "escape_demo.keyword default",
            "escape_demo.positional default",
        ]

    def test_nested_function_defaults_are_not_shared(self):
        module = self.module(
            "def outer(seed):\n"
            "    def inner(rng=derive_rng(seed, 'x')):\n        return rng\n"
            "    return inner\n"
        )
        module.outer(0)
        assert escaped_rngs(module) == []

    def test_no_repro_module_holds_a_live_rng(self):
        modules = all_repro_modules()
        assert len(modules) > 100
        found = [where for module in modules for where in escaped_rngs(module)]
        assert found == []


class TestSpawnPoolCheck:
    def test_flags_a_worker_reading_parent_written_state(self, spawn_pools):
        _PARENT_WRITTEN["factor"] = 3
        try:
            serial = pmap(_scaled, range(8), workers=1)
            pooled = pmap(_scaled, range(8), workers=2)
        finally:
            _PARENT_WRITTEN.clear()
        assert spawn_pools == [2]
        assert serial == [value * 3 for value in range(8)]
        assert pooled == list(range(8))

    def test_classify_stage_under_spawn_matches_serial(self, spawn_pools):
        serial = pipeline_artifacts(workers=1)
        assert not spawn_pools
        assert pipeline_artifacts(workers=2) == serial
        assert spawn_pools == [2]

    def test_resolver_under_spawn_matches_serial(self, spawn_pools):
        rng = random.Random(5)
        onions = [onion_address_from_key(rng.randbytes(140)) for _ in range(40)]
        start = parse_date("2013-01-28")
        end = parse_date("2013-02-08")
        requested = [
            desc
            for ids in descriptor_ids_for_window_batch(onions, start, end)
            for desc in ids
        ]
        serial = DescriptorResolver(onions, start, end, requested, workers=1)
        pooled = DescriptorResolver(onions, start, end, requested, workers=2)
        assert spawn_pools == [2]
        assert serial.index_size > 0
        assert pooled._index == serial._index
        assert pooled.collisions == serial.collisions


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_repro_all_prints_the_golden_under_any_hash_seed(tmp_path, hash_seed):
    tests = pathlib.Path(__file__).resolve().parent
    summary = tmp_path / "all.json"
    env = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    env.update(PYTHONHASHSEED=hash_seed, PYTHONPATH=str(tests.parent / "src"))
    run = subprocess.run(
        [
            sys.executable, "-m", "repro", "all",
            "--scale", str(ALL_SCALE),
            "--seed", str(ALL_SEED),
            "--workers", "1",
            "--fault-profile", "none",
            "--json", str(summary),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    pinned = (tests / "goldens" / "all_small.txt").read_text(encoding="utf-8")
    assert render_all(run.stdout, summary.read_text(encoding="utf-8")) + "\n" == pinned
