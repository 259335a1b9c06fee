"""Run the randstep CLI in this process with a span around each call into
the public functions of its layers, then write the spans out as JSON.

Usage: python3 perfbench/traced_cli.py SPANS_JSON converge --config FILE ...

The spans are recorded from outside the program: every traced function is
replaced, in each randstep module that holds a reference to it, by a
wrapper that appends [name, start, end, parent_index] to an in-memory
list.  The list, plus array sizes summed from the returned arrays
(computed with `nbytes`, not measured traffic), is written when the CLI
returns.  Pool workers do not send spans back, so trace with --workers 1.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import randstep.cli
from randstep import analysis, config, grids, integrators, problems, randomisation, sampler

TRACED = (
    (config, "load_config"),
    (grids, "build_grid"),
    (problems, "exact_flow"),
    (integrators, "step"),
    (randomisation, "noise_path"),
    (randomisation, "psi2_amplitude"),
    (sampler, "exact_states"),
    (sampler, "trajectory_stream"),
    (sampler, "run_ensemble"),
    (sampler, "measure_truncation_constant"),
    (analysis, "error_statistics"),
    (analysis, "lr_norm_estimate"),
    (analysis, "orlicz_norm_estimate"),
)


def _ensemble_nbytes(ensemble) -> int:
    arrays = (ensemble.states, ensemble.errors, ensemble.noise, ensemble.defects)
    return sum(a.nbytes for a in arrays if a is not None)


# spans whose returned arrays are sized, and how
BYTE_COUNTERS = {
    "randomisation.noise_path": lambda path: path.nbytes,
    "sampler.run_ensemble": _ensemble_nbytes,
}


class Tracer:
    """Span list and the stack of open spans for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.nbytes = dict.fromkeys(BYTE_COUNTERS, 0)

    def wrap(self, name: str, fn):
        size = BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()
            if size is not None:
                self.nbytes[name] += size(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "randstep" or n.startswith("randstep.")]
        for module, attr in TRACED:
            original = getattr(module, attr)
            wrapped = self.wrap(f"{module.__name__.split('.')[-1]}.{attr}", original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
        sampler.Ensemble.error_h_norms = self.wrap(
            "sampler.Ensemble.error_h_norms", sampler.Ensemble.error_h_norms
        )


def main(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    code = tracer.wrap("cli.main", randstep.cli.main)(argv)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "nbytes": tracer.nbytes}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
