"""Shared helpers for the test suite."""

import os
import resource
import sys
from functools import cache, partial
from pathlib import Path

import stardyn.certify as certify_module
import stardyn.patterns as patterns_module
import stardyn.plmap as plmap_module
from stardyn.patterns import enumerate_patterns, parse_pattern
from stardyn.plmap import realize

EX1 = "n=3 k=5; b1: 1 3; b2: 2; b3: 4"
EX2 = "n=3 k=6; b1: 1 3 5; b2: 2; b3: 4"
SRC = str(Path(plmap_module.__file__).resolve().parents[1])


def child_env(**overrides):
    """The environment for a child Python process: this one's, with the
    ``src`` directory of the package under test first on ``PYTHONPATH``,
    and ``overrides`` on top."""
    env = {**os.environ, **overrides}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return env


def address_space(limit):
    """A ``preexec_fn`` for ``subprocess``: it caps the address space
    (``RLIMIT_AS``) of the child process alone at ``limit`` bytes."""
    return partial(resource.setrlimit, resource.RLIMIT_AS, (limit, limit))


@cache
def realized_classes(n, k):
    """The realization of every class of shape (n, k), empty branches
    allowed (``enumerate_patterns`` order), built once per test session.
    A class with every branch occupied has ``all(m.branch_lengths[1:])``."""
    return tuple(realize(p) for p in enumerate_patterns(n, k))


def random_pattern(rng, n, k, all_branches=False):
    while True:
        branches = [[] for _ in range(n)]
        for i in range(1, k):
            b = rng.randrange(n)
            branches[b].insert(rng.randint(0, len(branches[b])), i)
        if all_branches and any(not br for br in branches):
            continue
        text = "; ".join(
            [f"n={n} k={k}"]
            + [f"b{b}: " + " ".join(map(str, br)) if br else f"b{b}:"
               for b, br in enumerate(branches, start=1)]
        )
        return parse_pattern(text)


def count_calls(monkeypatch, names):
    """Count the calls of each named ``stardyn`` function, at every
    module-level name bound to it."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = next(
            getattr(module, name)
            for module in (certify_module, patterns_module)
            if hasattr(module, name)
        )

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "stardyn" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def drop_one_listed_point(monkeypatch, period):
    """Make the oracle's full listing at ``period`` lose the first point
    of the first orbit it replays (``plmap._orbit``), below the scan's
    check against the closed-walk count."""
    orbit = plmap_module._orbit
    dropped = []

    def dropping(m, path, *args):
        entries = orbit(m, path, *args)
        if len(path) != period or dropped:
            return entries
        dropped.append(entries[0])
        return entries[1:]

    monkeypatch.setattr(plmap_module, "_orbit", dropping)
