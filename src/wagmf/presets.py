"""Named optimizer presets.

Shared defaults: beta1 = 0.9 (constant, lam = 1), beta2 = 0.999 for the EMA
family, epsilon = 1e-7 added to V_t, and alpha_t = alpha / sqrt(t).  Aside
from engine/weight wiring the presets are:

===========  ============  =======================  ==========
name         engine        weights                  p1, p2
===========  ============  =======================  ==========
sgd          plain_sgd     (V_t = 1)                -
sign_sgd     sign          (V_t = |g_t|)            -
adagrad      wagmf_sum     equal, beta1 = 0         2, 2
rmsprop      ema           beta2 EMA, beta1 = 0     2, 2
rmsprop_avg  wagmf_sum     equal, beta1 = 0         2, 2
adam         ema           beta2 EMA                2, 2
adamnc       wagmf_sum     equal                    2, 2
amsgrad      amsgrad       beta2 EMA + running max  2, 2
wada         wagmf_stable  linear (gamma_t = t)     2, 4
wada_v3      wagmf_stable  linear                   3, 4
wada_v4      wagmf_stable  linear                   4, 4
nostalgic    wagmf_sum     gamma_t = t**(-eta)      2, 2
===========  ============  =======================  ==========

``adagrad`` and ``rmsprop_avg`` share a configuration on purpose: with
alpha_t = alpha/sqrt(t) the equal-weight average V_t = sqrt(sum g^2 / t)
reproduces classic AdaGrad steps exactly (the 1/sqrt(t) cancels), and it is
also the "average of squared gradients" RMSProp revision.  ``nostalgic``
accepts the exponent inline, e.g. ``nostalgic(0.5)``; the bare name uses
eta = 1.  Adam-style bias correction is off by default and can be switched
on with the ``bias_correction`` override.
"""

from __future__ import annotations

import re

from .errors import ConfigError, InvalidOverride, UnknownPreset
from .numerics import integer, real, string, switch, table
from .schedules import MomentumSchedule, StepSizeSchedule, WeightSchedule
from .steps import ENGINES, OptimizerConfig
from . import steps

DEFAULT_BETA1 = 0.9
DEFAULT_BETA2 = 0.999
DEFAULT_EPSILON = 1e-7

# engine -> step function.  Every engine runs ``steps.step``, which
# ``runner._round_loop`` looks up here once per group of configs that differ
# only in alpha; the table exists so that tools that time or replace the step
# per engine, as the benchmark's tracer does, patch one place.
STEP_FN = dict.fromkeys(ENGINES, steps.step)

# name -> (engine, weight kind, p1, p2, default beta1)
_TABLE = {
    "sgd": ("plain_sgd", "equal", 2, 2, DEFAULT_BETA1),
    "sign_sgd": ("sign", "equal", 2, 2, DEFAULT_BETA1),
    "adagrad": ("wagmf_sum", "equal", 2, 2, 0.0),
    "rmsprop": ("ema", "exponential", 2, 2, 0.0),
    "rmsprop_avg": ("wagmf_sum", "equal", 2, 2, 0.0),
    "adam": ("ema", "exponential", 2, 2, DEFAULT_BETA1),
    "adamnc": ("wagmf_sum", "equal", 2, 2, DEFAULT_BETA1),
    "amsgrad": ("amsgrad", "exponential", 2, 2, DEFAULT_BETA1),
    "wada": ("wagmf_stable", "linear", 2, 4, DEFAULT_BETA1),
    "wada_v3": ("wagmf_stable", "linear", 3, 4, DEFAULT_BETA1),
    "wada_v4": ("wagmf_stable", "linear", 4, 4, DEFAULT_BETA1),
    "nostalgic": ("wagmf_sum", "hyper_harmonic", 2, 2, DEFAULT_BETA1),
}

# override key -> the config check its value goes through
_OVERRIDE_KEYS = {
    "beta1": real,
    "lambda": real,
    "beta2": real,
    "eta": real,
    "epsilon": real,
    "p1": integer,
    "p2": integer,
    "step_kind": string,
    "engine": string,
    "bias_correction": switch,
}

_NOSTALGIC_RE = re.compile(r"nostalgic\((\S+)\)")


def preset_names() -> list[str]:
    return sorted(_TABLE)


def make_preset(name: str, alpha: float, overrides: dict | None = None) -> OptimizerConfig:
    """The optimizer configuration of preset ``name`` with base step size
    ``alpha``.

    ``overrides`` may adjust beta1, lambda (momentum decay), beta2, eta,
    epsilon, p1, p2, step_kind, engine, bias_correction; any other key, a
    value its config check rejects, or a value the schedules reject raises
    InvalidOverride.
    """
    try:
        checked = table("override", overrides or {}, _OVERRIDE_KEYS)
        o = {key: _OVERRIDE_KEYS[key](f"override {key!r}", v) for key, v in checked.items()}
    except ConfigError as e:
        raise InvalidOverride(str(e)) from None

    base = name
    inline_eta = None
    m = _NOSTALGIC_RE.fullmatch(name)
    if m:
        base = "nostalgic"
        try:
            inline_eta = float(m.group(1))
        except ValueError:
            raise UnknownPreset(f"bad nostalgic exponent in {name!r}") from None
    if base not in _TABLE:
        raise UnknownPreset(
            f"unknown preset {name!r}; known: {', '.join(preset_names())}"
        )
    engine, weight_kind, p1, p2, beta1_default = _TABLE[base]

    try:
        step = StepSizeSchedule(alpha, o.get("step_kind", "inv_sqrt"))
        momentum = MomentumSchedule(o.get("beta1", beta1_default), o.get("lambda", 1.0))
        if weight_kind == "equal":
            weight = WeightSchedule.equal()
        elif weight_kind == "linear":
            weight = WeightSchedule.linear()
        elif weight_kind == "exponential":
            weight = WeightSchedule.exponential(o.get("beta2", DEFAULT_BETA2))
        else:
            eta = o.get("eta", inline_eta if inline_eta is not None else 1.0)
            weight = WeightSchedule.hyper_harmonic(eta)
        return OptimizerConfig(
            weight=weight,
            step=step,
            momentum=momentum,
            p1=o.get("p1", p1),
            p2=o.get("p2", p2),
            epsilon=o.get("epsilon", DEFAULT_EPSILON),
            engine=o.get("engine", engine),
            bias_correction=o.get("bias_correction", False),
        )
    except ValueError as e:
        raise InvalidOverride(str(e)) from None
