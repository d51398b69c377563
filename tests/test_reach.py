"""Reach gate: every function defined in src/maform is entered by a command.

One fresh interpreter runs each command in-process under sys.setprofile,
on small domain and tensor specs at n = 2 and n = 3, a domain that fails
strict pseudoconvexity and two malformed specs, and reports the functions
of the package that no run entered.  A fresh interpreter, so no cache
filled by another test (compiled jets, quadrature rules, Gram matrices)
hides a function, and the profile is set before maform is imported, so
calls made at import time count.  A function is a def or a method;
lambdas and comprehensions are expressions of the code that holds them.

Run as a script (python tests/test_reach.py DIR), it writes the specs to
DIR, runs the commands and prints one JSON object: the exit codes and the
unreached functions as 'module.qualname'.
"""

import inspect
import json
import os
import subprocess
import sys
import types

# module.qualname -> why no command enters it
UNREACHED = {
    "gridforms.load_records": "reads dumps back: bench/checks.py and the dump tests use it",
    "symforms.Expr.__rpow__": "number ** node; spec numbers are nodes already, so only callers build it",
    "symforms.Expr.__reduce__": "keeps one node per structure when a node is copied or pickled",
    "symforms.Expr.__repr__": "the readable form of a node, for debugging",
}

SPECS = {
    "ball.dom": "mu.kind = ball\nN_v = 9\n",
    "ellipsoid.dom": "mu.kind = ellipsoid\na = 1\nb = 4\nN_v = 9\nN_r = 8\nN_theta = 16\n",
    "perturbed.dom": "mu.kind = perturbed_ball\neps = 0.05\nq = 2:1, 3:0.5\nN_v = 9\n",
    "tau.dom": "n = 2\ntau.expr = x1**2 + y1**2 + x2**2 + y2**2\nN_v = 9\n",
    "ellipsoid3.dom": "n = 3\nmu.kind = ellipsoid\nN_v = 5\n",
    "levi.dom": "mu.kind = perturbed_ball\neps = 0.5\nN_v = 9\n",
    "bad_value.dom": "mu.kind = ball\nN_theta = 12\n",
    "bad_name.dom": "n = 2\ntau.expr = x1**2 + w\n",
    "n2.tns": "n = 2\nN_v = 9\nk_max = 2\nmode 0 1 1 = 0.05*exp(-1)/(1 + v*conj(v))\n"
              "mode 2 1 1 = 0.01*v\n",
    "n3.tns": "n = 3\nN_v = 5\nk_max = 1\nmode 0 1 1 = 0.2\nmode 0 2 1 = 0.1*v1*conj(v1)\n"
              "mode 1 2 2 = 0.15*v2\n",
}

# (arguments, exit code): the Moser commands exit 2 at n = 3, the n = 3
# tensor fails its integrability conditions, eps = 0.5 fails the Levi
# witness, and the malformed specs give an N_theta that is not a power of
# two and an unknown coordinate
RUNS = [
    (["verify", "--domain", "perturbed.dom", "--samples", "2"], 0),
    (["verify", "--domain", "tau.dom", "--samples", "2"], 0),
    (["verify", "--domain", "ellipsoid3.dom", "--samples", "2"], 0),
    (["normalize", "--domain", "ball.dom", "--steps", "20", "--binary"], 0),
    (["normalize", "--domain", "ellipsoid3.dom"], 2),
    (["invariants", "--domain", "ellipsoid.dom", "--steps", "20"], 0),
    (["invariants", "--domain", "ellipsoid3.dom"], 2),
    (["classify", "--domain", "perturbed.dom", "--steps", "20"], 0),
    (["classify", "--domain", "ellipsoid3.dom"], 2),
    (["classify", "--tensor", "n2.tns"], 0),
    (["classify", "--tensor", "n3.tns"], 1),
    (["scale-test", "--tensor", "n2.tns"], 0),
    (["scale-test", "--tensor", "n3.tns"], 1),
    (["verify", "--domain", "levi.dom", "--samples", "2"], 1),
    (["verify", "--domain", "bad_value.dom"], 2),
    (["verify", "--domain", "bad_name.dom"], 2),
]


def package_defs(src):
    """(file, first line, name) -> 'module.qualname' of every def in the
    package sources."""
    out = {}
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(src, name)
        with open(path) as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            for c in stack.pop().co_consts:
                if isinstance(c, types.CodeType):
                    stack.append(c)
                    if c.co_flags & inspect.CO_OPTIMIZED and not c.co_name.startswith("<"):
                        out[(path, c.co_firstlineno, c.co_name)] = f"{name[:-3]}.{c.co_qualname}"
    return out


def run_commands(directory):
    """Write the specs to directory, run every command under the profile
    and return (exit codes, sorted unreached functions)."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    for name, text in SPECS.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)
    os.chdir(directory)
    codes = []
    sys.setprofile(profile)
    try:
        from maform.cli import main

        for argv, _ in RUNS:
            codes.append(main(argv + ["--out", "out"]))
    finally:
        sys.setprofile(None)
    import maform

    defs = package_defs(os.path.dirname(os.path.abspath(maform.__file__)))
    for code in entered:
        defs.pop((code.co_filename, code.co_firstlineno, code.co_name), None)
    return codes, sorted(defs.values())


def test_every_function_is_entered_by_a_command(tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + env.get("PYTHONPATH", "").split(os.pathsep))
    out = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], env=env, capture_output=True,
        text=True, check=True, timeout=300,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["codes"] == [code for _, code in RUNS]
    # a function that leaves this list is reached now, and its entry goes
    assert result["unreached"] == sorted(UNREACHED)


if __name__ == "__main__":
    codes, unreached = run_commands(sys.argv[1])
    print(json.dumps({"codes": codes, "unreached": unreached}))
