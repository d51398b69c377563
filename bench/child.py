"""One `maform` CLI process of the benchmark.

    python3 bench/child.py MODE STAMP_FILE TRACE_FILE -- MAFORM_ARGS...

MODE is `run` (the plain command), `probe` (stop at the first pipeline
call, so that only set-up is measured) or `trace` (the command with the
layer functions wrapped).  At the first pipeline call the process writes
time.monotonic() to STAMP_FILE; the parent, which took its own
time.monotonic() just before launching, gets set-up time from it.  In
`trace` mode the spans and counts are kept in memory and written to
TRACE_FILE as JSON when the command ends.  The program itself is not
edited: every wrapper is installed from here, after import.
"""

import functools
import json
import os
import sys
import time

# Names the cli module calls to start the pipeline; the first call of any
# of them ends set-up (spec load, and for tensor specs the parsing of the
# mode coefficients).
PIPELINE_ENTRIES = (
    "make_circular_domain",
    "tensor_from_mode_functions",
    "verify_ma_identities",
    "normalize_domain",
    "extract",
    "classify",
    "scaling_test",
)

# metric prefix -> (module, attribute path) of each traced layer function
LAYERS = (
    ("symforms.compile", "sympy", "lambdify"),
    ("symforms.cancel", "sympy", "cancel"),
    ("symforms.evaluate", "maform.symforms", "AnalyticForm.evaluate"),
    ("domains.make_circular_domain", "maform.domains", "make_circular_domain"),
    ("moser.normalize_domain", "maform.moser", "normalize_domain"),
    ("moser.curvature", "maform.moser", "curvature"),
    ("moser.moser_flow", "maform.moser", "moser_flow"),
    ("moser.horizontal_lift", "maform.moser", "horizontal_lift"),
    ("moser.assemble", "maform.moser", "assemble"),
    ("moser.velocity", "maform.moser", "MoserFieldEvaluator.velocity"),
    ("foliation.verify_ma_identities", "maform.foliation", "verify_ma_identities"),
    ("foliation.zfield", "maform.foliation", "ZFieldEvaluator.__call__"),
    ("deformation.extract", "maform.deformation", "extract"),
    ("deformation.tensor_from_mode_functions", "maform.deformation", "tensor_from_mode_functions"),
    ("deformation.contract", "maform.deformation", "contract"),
    ("deformation.mode_norms", "maform.deformation", "DeformationTensor.mode_norms"),
    ("characterization.classify", "maform.characterization", "classify"),
    ("characterization.scaling_test", "maform.characterization", "scaling_test"),
    ("gridforms.dump_records", "maform.gridforms", "dump_records"),
    ("atlas.blowup_forward", "maform.atlas", "blowup_forward"),
    ("cli.load_spec", "maform.cli", "load_domain_file"),
    ("cli.load_spec", "maform.cli", "load_tensor_file"),
)


def _flow_steps(flow, n_steps=None):
    return len(flow.conn.atlas.charts) * (n_steps or flow.n_steps)


def _dump_bytes(records, path, binary=False):
    return os.path.getsize(path)


# metric prefix -> (counter, function of the call's arguments and result)
COUNTERS = {
    "moser.moser_flow": ("moser.rk4_steps", lambda args, kw, res: _flow_steps(res)),
    "moser.horizontal_lift": ("moser.rk4_steps", lambda args, kw, res: _flow_steps(*args, **kw)),
    "gridforms.dump_records": ("gridforms.bytes_written", lambda args, kw, res: _dump_bytes(*args, **kw)),
}


class Tracer:
    """Spans and counts of the wrapped layer functions, kept in memory.

    A span is [name, parent index, start, end].  Inclusive seconds of a
    name add up only its outermost active call, so recursion is not
    counted twice.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = {}
        self.seconds = {}
        self.counters = {}
        self.depth = {}

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self.stack[-1] if self.stack else -1, time.monotonic(), None]
            self.spans.append(span)
            self.stack.append(index)
            self.depth[name] = self.depth.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.monotonic()
                self.stack.pop()
                self.depth[name] -= 1
                self.calls[name] = self.calls.get(name, 0) + 1
                if not self.depth[name]:
                    self.seconds[name] = self.seconds.get(name, 0.0) + span[3] - span[2]
            if counter is not None:
                key, measure = counter
                self.counters[key] = self.counters.get(key, 0) + measure(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every layer function that exists, in its defining module or
        class and in every maform module that imported it by name."""
        for name, module, path in LAYERS:
            owner = sys.modules.get(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original)
            setattr(owner, attr, wrapped)
            if outer:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("maform") and mod is not None:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def dump(self, path, import_s):
        with open(path, "w") as fh:
            json.dump(
                {
                    "import_s": import_s,
                    "calls": self.calls,
                    "seconds": self.seconds,
                    "counters": self.counters,
                    "spans": self.spans,
                },
                fh,
            )


def main():
    mode, stamp_path, trace_path, sep, *argv = sys.argv[1:]
    if mode not in ("run", "probe", "trace") or sep != "--":
        sys.exit("usage: child.py run|probe|trace STAMP TRACE -- ARGS...")
    start = time.monotonic()
    from maform import cli

    import_s = time.monotonic() - start
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()

    stamped = []

    def stamp_first(fn):
        @functools.wraps(fn)
        def first_call(*args, **kwargs):
            if not stamped:
                stamped.append(time.monotonic())
                with open(stamp_path, "w") as fh:
                    fh.write(repr(stamped[0]))
                if mode == "probe":
                    os._exit(0)
            return fn(*args, **kwargs)

        return first_call

    entries = [name for name in PIPELINE_ENTRIES if hasattr(cli, name)]
    if not entries:
        sys.exit("maform.cli calls none of the known pipeline entry points")
    for name in entries:
        setattr(cli, name, stamp_first(getattr(cli, name)))
    try:
        code = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_path, import_s)
    sys.exit(code)


if __name__ == "__main__":
    main()
