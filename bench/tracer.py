"""Run one steiner3 CLI command in process with a span around every public call.

Usage: python3 tracer.py TRACE_OUT.json -- CLI_ARGS...

The command runs through ``steiner3.cli.main`` exactly as the console script
would, in a fresh interpreter, with its stdout untouched.  Before it runs,
every public function of the ``cli``, ``gf``, ``design``, ``permgrp``,
``catalog`` and ``sieve`` modules is replaced by a timing wrapper, and every
name that another steiner3 module bound to it with ``from ... import`` is
rebound to the wrapper.  ``Design.block_index`` and ``FieldContext``
construction are wrapped on their classes.  The verb handlers ``cmd_*`` and
``build_parser`` stay unwrapped, so ``cli.main``'s self time holds argparse,
file I/O, printing and JSON output.

Each span records calls, total seconds, self seconds (its duration minus the
time its child spans cover) and raised errors.  The trace, with the import
time of ``steiner3.cli`` and the work counters, is written to TRACE_OUT.json.
"""

import sys
import time

# steiner3.cli is imported first, before anything else, so that its import
# time is that of a fresh interpreter
_t0 = time.perf_counter()
import steiner3.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402

MODULES = ("cli", "gf", "design", "permgrp", "catalog", "sieve")


class Span:
    __slots__ = ("calls", "total", "self", "errors")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.errors = 0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        # time covered by child spans, one entry per open span; the bottom
        # entry collects top-level spans
        self.covered = [0.0]
        self.counters = {
            "permgrp.orbit.states": 0,
            "permgrp.automorphism_group.generators": 0,
            "sieve.pairs_yielded": 0,
            "sieve.pairs_admissible": 0,
        }

    def wrap(self, name, fn, after=None):
        """fn with a span; `after(result)` updates counters on success."""
        span = self.spans.setdefault(name, Span())
        covered = self.covered
        clock = time.perf_counter

        def traced(*args, **kwargs):
            covered.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.errors += 1
                raise
            finally:
                dt = clock() - t0
                span.calls += 1
                span.total += dt
                span.self += dt - covered.pop()
                covered[-1] += dt
            if after is not None:
                after(result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def wrap_iterator(self, name, fn):
        """fn returns an iterator at once: time each step of it in the same span."""
        call = self.wrap(name, fn)
        span = self.spans[name]
        covered = self.covered
        clock = time.perf_counter
        counters = self.counters

        def steps(it):
            yielded = admissible = 0
            try:
                while True:
                    covered.append(0.0)
                    t0 = clock()
                    try:
                        report = next(it)
                    except StopIteration:
                        return
                    except BaseException:
                        span.errors += 1
                        raise
                    finally:
                        dt = clock() - t0
                        span.total += dt
                        span.self += dt - covered.pop()
                        covered[-1] += dt
                    yielded += 1
                    admissible += report.admissible
                    yield report
            finally:
                counters["sieve.pairs_yielded"] += yielded
                counters["sieve.pairs_admissible"] += admissible

        def traced(*args, **kwargs):
            return steps(call(*args, **kwargs))

        functools.update_wrapper(traced, fn)
        return traced

    def install(self):
        package = sys.modules["steiner3"]
        replaced = {}
        for short in MODULES:
            module = sys.modules[f"steiner3.{short}"]
            for attr, fn in list(vars(module).items()):
                if not _is_public_function(module, attr, fn):
                    continue
                name = f"{short}.{attr}"
                if name == "sieve.admissible_parameters":
                    wrapper = self.wrap_iterator(name, fn)
                elif name == "permgrp.orbit":
                    wrapper = self.wrap(name, fn, self._count("permgrp.orbit.states", len))
                elif name == "permgrp.automorphism_group":
                    wrapper = self.wrap(
                        name,
                        fn,
                        self._count(
                            "permgrp.automorphism_group.generators", lambda g: len(g.gens)
                        ),
                    )
                else:
                    wrapper = self.wrap(name, fn)
                replaced[id(fn)] = wrapper
        # rebind the names other modules imported with `from ... import`
        for module in [package] + [sys.modules[f"steiner3.{m}"] for m in MODULES]:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        design = sys.modules["steiner3.design"].Design
        design.block_index = self.wrap("design.Design.block_index", design.block_index)
        field = sys.modules["steiner3.gf"].FieldContext
        field.__init__ = self.wrap("gf.FieldContext", field.__init__)

    def _count(self, counter, measure):
        counters = self.counters

        def after(result):
            counters[counter] += measure(result)

        return after

    def report(self) -> dict:
        return {
            "import_s": IMPORT_S,
            "spans": {
                name: [s.calls, s.total, s.self, s.errors] for name, s in self.spans.items()
            },
            "counters": self.counters,
        }


def _is_public_function(module, attr: str, value) -> bool:
    if attr.startswith("_") or inspect.isclass(value) or not callable(value):
        return False
    if getattr(value, "__module__", None) != module.__name__:
        return False  # imported from elsewhere: wrapped where it is defined
    short = module.__name__.rsplit(".", 1)[1]
    return not (short == "cli" and (attr.startswith("cmd_") or attr == "build_parser"))


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py TRACE_OUT.json -- CLI_ARGS...", file=sys.stderr)
        return 2
    out, args = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        return steiner3.cli.main(args)
    finally:
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    sys.exit(main())
