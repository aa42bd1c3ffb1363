"""Model endpoints: what the service hosts and how each tier explains it.

An :class:`Endpoint` owns one model, its background sample, and a
version string; the server owns a name → endpoint registry. The
endpoint is where tier names become explainer objects:

=========== ========================================================
tier        explainer
=========== ========================================================
exact       :class:`repro.shapley.ExactShapleyExplainer` — offered
            only up to ``exact_max_features`` features (2^n
            coalitions beyond that is an outage, not a request)
sampling    :class:`repro.shapley.SamplingShapleyExplainer` with the
            per-request ``n_permutations`` budget the ladder chose
surrogate   :class:`repro.surrogate.LimeTabularExplainer` over the
            endpoint's background sample
=========== ========================================================

Explainer instances are cached per ``(tier, effective params)`` —
construction cost (background subsampling, LIME feature statistics) is
paid once, not per request. The *effective* params (client whitelist ∩
ladder overrides, with defaults filled in) also feed the request key,
so caching and coalescing see through parameter spellings that mean the
same computation.

Bumping :meth:`Endpoint.set_version` makes every cached explanation for
the old version unreachable; the server additionally drains them from
the warm cache eagerly.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.dataset import TabularDataset
from ..robust.errors import InputValidationError
from ..shapley import ExactShapleyExplainer, SamplingShapleyExplainer
from ..surrogate import LimeTabularExplainer
from .config import ServeConfig
from .ladder import TIERS
from .protocol import params_key

__all__ = ["Endpoint", "EndpointRegistry"]

# The only client-settable explainer params; anything else is a 400.
_PARAM_WHITELIST = {
    "sampling": ("n_permutations", "seed"),
    "surrogate": ("n_samples", "seed"),
    "exact": (),
}
_PARAM_BOUNDS = {
    "n_permutations": (1, 2000),
    "n_samples": (16, 20000),
    "seed": (0, 2**31 - 1),
}


class Endpoint:
    """One hosted model: background data, version, per-tier explainers."""

    def __init__(
        self,
        name: str,
        model,
        background: np.ndarray,
        feature_names: list[str] | None = None,
        version: str = "v1",
        config: ServeConfig | None = None,
    ) -> None:
        self.name = name
        self.model = model
        self.background = np.asarray(background, dtype=float)
        if self.background.ndim != 2:
            raise ValueError("background must be a 2-D array")
        self.n_features = int(self.background.shape[1])
        self.feature_names = (
            list(feature_names)
            if feature_names is not None
            else [f"f{i}" for i in range(self.n_features)]
        )
        self.config = config or ServeConfig()
        self._version = str(version)
        self._lock = threading.Lock()
        self._explainers: dict[tuple[str, str], object] = {}

    # -- versioning --------------------------------------------------------

    @property
    def version(self) -> str:
        with self._lock:
            return self._version

    def set_version(self, version: str) -> str:
        """Install a new model version; old cache keys become unreachable."""
        with self._lock:
            self._version = str(version)
            # The model may have changed under the same object; cached
            # explainers hold predict_fn references, so rebuild them.
            self._explainers.clear()
            return self._version

    def set_model(self, model, version: str) -> str:
        """Swap in a registry-loaded model under a new version string.

        The version-bump route resolves ``(name, version)`` through the
        persist artifact registry and installs the loaded model here;
        the cleared explainer cache guarantees the next request is
        explained against the new artifact, not a stale predict_fn.
        """
        with self._lock:
            self.model = model
            self._version = str(version)
            self._explainers.clear()
            return self._version

    # -- tiers -------------------------------------------------------------

    @property
    def available_tiers(self) -> tuple[str, ...]:
        """Tiers this endpoint offers, most faithful first."""
        if self.n_features <= self.config.exact_max_features:
            return TIERS
        return tuple(t for t in TIERS if t != "exact")

    def effective_params(self, tier: str, client_params: dict | None,
                         overrides: dict | None) -> dict:
        """Validated, defaulted params for one request at one tier.

        Client params are whitelisted per tier (unknown keys are a 400 —
        a typo'd knob silently ignored is a debugging session); ladder
        ``overrides`` then clamp budgets downward: a shedding server
        honors the *smaller* of what the client asked and what the
        ladder allows.
        """
        allowed = _PARAM_WHITELIST.get(tier, ())
        params: dict = {}
        for key, value in (client_params or {}).items():
            if key not in allowed:
                raise InputValidationError(
                    f"unknown param {key!r} for tier {tier!r}; "
                    f"allowed: {sorted(allowed) or 'none'}"
                )
            lo, hi = _PARAM_BOUNDS[key]
            try:
                value = int(value)
            except (TypeError, ValueError):
                raise InputValidationError(
                    f"param {key!r} must be an integer, got {value!r}"
                ) from None
            if not lo <= value <= hi:
                raise InputValidationError(
                    f"param {key!r} out of range [{lo}, {hi}]: {value}"
                )
            params[key] = value
        if tier == "sampling":
            budget = (overrides or {}).get(
                "n_permutations", self.config.sampling_permutations
            )
            params["n_permutations"] = min(
                params.get("n_permutations", budget), budget
            )
            params.setdefault("seed", 0)
        elif tier == "surrogate":
            params.setdefault("n_samples", 1000)
            params.setdefault("seed", 0)
        return params

    def explainer(self, tier: str, params: dict):
        """The cached explainer for ``(tier, params)``, built on demand."""
        key = (tier, params_key(params))
        with self._lock:
            found = self._explainers.get(key)
            if found is not None:
                return found
            built = self._build(tier, params)
            self._explainers[key] = built
            return built

    def _build(self, tier: str, params: dict):
        if tier == "exact":
            if self.n_features > self.config.exact_max_features:
                raise InputValidationError(
                    f"endpoint {self.name!r} has {self.n_features} features; "
                    "exact enumeration is capped at "
                    f"{self.config.exact_max_features}"
                )
            return ExactShapleyExplainer(self.model, self.background)
        if tier == "sampling":
            return SamplingShapleyExplainer(
                self.model,
                self.background,
                n_permutations=int(params["n_permutations"]),
                seed=int(params.get("seed", 0)),
            )
        if tier == "surrogate":
            data = TabularDataset(
                self.background,
                np.zeros(len(self.background)),
                features=list(self.feature_names),
            )
            return LimeTabularExplainer(
                self.model,
                data,
                n_samples=int(params["n_samples"]),
                seed=int(params.get("seed", 0)),
            )
        raise InputValidationError(f"unknown explainer tier {tier!r}")

    def explain(self, tier: str, params: dict, x: np.ndarray):
        """Run one explanation at the given tier."""
        explainer = self.explainer(tier, params)
        if tier == "surrogate":
            return explainer.explain(x)
        return explainer.explain(x, feature_names=list(self.feature_names))


class EndpointRegistry:
    """Thread-safe name → :class:`Endpoint` map for one server."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: dict[str, Endpoint] = {}

    def add(self, endpoint: Endpoint) -> Endpoint:
        with self._lock:
            self._endpoints[endpoint.name] = endpoint
            return endpoint

    def get(self, name: str) -> Endpoint:
        from .errors import UnknownEndpointError

        with self._lock:
            found = self._endpoints.get(name)
        if found is None:
            raise UnknownEndpointError(
                f"no such model endpoint {name!r}; "
                f"hosted: {sorted(self._endpoints) or 'none'}"
            )
        return found

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._endpoints)
