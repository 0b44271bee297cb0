"""Full policy: backbone + fusion scheme + action expert + flow objective.

The policy owns every parameter (one ParamSet) and exposes the three
entry points the benchmark needs: a differentiable training loss, a
deterministic conditioning builder, and noise-to-action inference via
Euler integration.  Everything passed between the backbone, the scheme
hooks and the action expert is a plain Tensor, a list of them, or a
closure: the backbone's input sequence, every backbone layer's output,
and one conditioning Tensor per action block in both archs.
Conditioning is computed once per inference call and reused across all
integration steps, since no scheme couples the backbone to the flow time.
`predict` builds no graph: it runs under `tensor.no_grad`, which leaves
every value as it is.
"""
from __future__ import annotations

import numpy as np

from .backbones import ActionDiT, GeoEncoder, ToyMLLM
from .config import ExperimentConfig
from .flow import euler_integrate, fm_loss, fm_training_targets, sample_tau
from .rng import RngStream
from .schemes import FusionScheme, make_scheme
from .tensor import ParamSet, Tensor, no_grad


class FusionPolicy:
    def __init__(self, cfg: ExperimentConfig, rng: RngStream):
        """Every component reads `cfg`; `rng` seeds every initial weight.

        Setting `geo_encoder = None` models a policy deployed without
        geometry: a pass whose hooks read none runs as before, and any
        other pass fails.  Setting `scheme.null_geo = True` nulls any
        scheme: every pass then reads no geometry and runs the hooks of a
        base `FusionScheme` built from the same config."""
        self.cfg = cfg
        self.store = ParamSet()
        self.mllm = ToyMLLM(cfg, self.store, rng.derive(1))
        self.geo_encoder = GeoEncoder(cfg, self.store)
        self.dit = ActionDiT(cfg, self.store, rng.derive(2))
        self.scheme = make_scheme(cfg, self.store, rng.derive(3))
        self._base = FusionScheme(cfg, self.store, None)  # builds no params

    # -- parameter bookkeeping --------------------------------------------

    def param_groups(self):
        """(backbone `mllm.*` params, every other param), in store order;
        the optimizer skips frozen params.  The backbone is built first, so
        each group is one contiguous slice of `store.flat()`."""
        backbone = [p for p in self.store if p.id.startswith("mllm.")]
        rest = [p for p in self.store if not p.id.startswith("mllm.")]
        return backbone, rest

    def _hooks(self) -> FusionScheme:
        """The scheme whose hooks a pass runs: the base one when nulled."""
        return self._base if self.scheme.null_geo else self.scheme

    # -- geometry ----------------------------------------------------------

    def geo_tokens(self, scenes, training: bool, corruption=None) -> Tensor | None:
        """B x N x D_vggt patch tokens, or None when the hooks read none."""
        hooks = self._hooks()
        if not (hooks.training_geo_required if training else hooks.inference_geo_required):
            return None
        geo = self.geo_encoder.forward(scenes)
        if corruption is not None:
            geo = Tensor(corruption(geo.data))
        return geo

    # -- forward -----------------------------------------------------------

    def conditioning(self, scenes, geo):
        """Run backbone + scheme hooks; returns (one conditioning Tensor per
        action block, the scheme's geo_branch closure or None, every backbone
        layer's output)."""
        hooks = self._hooks()
        emb = hooks.modify_input(self.mllm.embed(scenes), geo)
        per_layer = self.mllm.run_layers(emb, hooks.mid_hook(geo))
        return hooks.conditioning(per_layer, geo), hooks.geo_branch(geo), per_layer

    # -- training objective ------------------------------------------------

    def loss(self, scenes, actions: np.ndarray, rng: RngStream):
        """Flow-matching loss plus any scheme alignment terms."""
        b = len(scenes)
        tau = sample_tau(rng, self.cfg, size=b)
        eps = rng.normal(actions.shape, self.cfg.noise_std)
        a_tau, v_target = fm_training_targets(actions, eps, tau)
        geo = self.geo_tokens(scenes, training=True)
        cond, branch, per_layer = self.conditioning(scenes, geo)
        v_pred = self.dit.forward(Tensor(a_tau), cond, tau, geo_branch=branch)
        action_loss = fm_loss(v_pred, v_target)
        parts = {"action": action_loss.item()}
        total = action_loss
        aux = self._hooks().aux_loss(per_layer, geo)
        if aux is not None:
            weight, term = aux
            parts["align"] = term.item()
            total = total + weight * term
        return total, parts

    # -- inference ---------------------------------------------------------

    def predict(self, scenes, rng: RngStream, corruption=None) -> np.ndarray:
        """Sample an action chunk per scene by integrating the velocity field;
        records no graph."""
        shape = (len(scenes), self.cfg.horizon, self.cfg.d_action)
        with no_grad():
            geo = self.geo_tokens(scenes, training=False, corruption=corruption)
            cond, branch, _ = self.conditioning(scenes, geo)

            def vel(a, tau):
                return self.dit.forward(Tensor(a), cond, tau, geo_branch=branch).data

            return euler_integrate(vel, shape, rng, self.cfg)
