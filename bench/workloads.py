"""The benchmark's three CLI workloads: config text, CLI arguments and the
rule that turns the harness seed into inputs.

The program under test sees only the config file written here and the CLI
arguments; nothing else about the harness reaches it.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 7
BLOWUP_J = 8192

# The README blow-up run, with the grid resolution and data left open.
_BLOWUP_CONFIG = """\
[problem]
n = 3
p = 2.0
potential = constant
c0 = 1.0

[grid]
R = 6.0
J = {J}
cfl = 0.9
t0 = -1.0
t_end = 0.0
snapshot_log = 0.04 1.0 16

[data]
kind = truncated_ode
M = {M!r}
w = {w!r}

[diagnostics]
sigma0 = 0.25
sigma1 = 0.5
gamma = 1.2
eta = 2.0
{diagnostics}
[output]
directory = out
"""

_CARLEMAN_CONFIG = """\
[verify]
cases = {cases}
seed = {seed}

[output]
directory = out
"""

PROFILE_T_STAR = tuple(float(t) for t in -np.geomspace(0.5, 0.08, 16))


def truncated_ode_data(seed: int) -> tuple[float, float]:
    """(M, w) of the truncated ODE data: the README values at the default
    seed, otherwise M in [1.75, 2.25] and w in [0.2, 0.3] from PCG64(seed).
    The blow-up at the origin is decided inside the light cone of the core,
    so the drawn values leave the blow-up time and step count unchanged."""
    if seed == DEFAULT_SEED:
        return 2.0, 0.25
    rng = np.random.Generator(np.random.PCG64(seed))
    return float(rng.uniform(1.75, 2.25)), float(rng.uniform(0.2, 0.3))


def blowup_config(seed: int) -> str:
    M, w = truncated_ode_data(seed)
    return _BLOWUP_CONFIG.format(J=BLOWUP_J, M=M, w=w, diagnostics="")


def carleman_config(seed: int) -> str:
    return _CARLEMAN_CONFIG.format(cases=200, seed=seed)


def profile_config(seed: int) -> str:
    M, w = truncated_ode_data(seed)
    t_star = " ".join(repr(t) for t in PROFILE_T_STAR)
    diagnostics = f"t_star = {t_star}\nfield_source = run\ncells = 96\n"
    return _BLOWUP_CONFIG.format(J=4096, M=M, w=w, diagnostics=diagnostics)


# workload name -> (CLI subcommand, config text from the harness seed)
WORKLOADS = {
    "blowup_j8192": ("simulate", blowup_config),
    "carleman_200": ("verify-carleman", carleman_config),
    "profile_j4096": ("energy-profile", profile_config),
}


def config_text(name: str, seed: int) -> str:
    return WORKLOADS[name][1](seed)


def cli_args(name: str, config_path: str, outdir: str) -> list[str]:
    return [WORKLOADS[name][0], "--config", config_path, "--out", outdir,
            "--threads", "1"]
