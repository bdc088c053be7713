"""Per-iteration communication volumes for 3D-parallel training.

Analytic volumes per GPU per optimizer step, following the standard
Megatron-LM / DeepSpeed accounting:

* **TP** — 4 ring all-reduces of the activation tensor per transformer
  layer per micro-batch (2 forward, 2 backward), within the TP group.
* **DP** — one gradient ring all-reduce of the rank's parameter shard
  (Megatron / ZeRO-1); ZeRO-3 instead all-gathers parameters in forward
  and backward and reduce-scatters gradients: ~3 ring passes over the
  full parameter bytes.
* **PP** — activations forward and gradients backward across each
  pipeline boundary, once per micro-batch.
* **EP** — all-to-all token dispatch+combine in forward and backward
  when expert parallelism is enabled.
"""

from repro.training.models import Framework

#: bf16 activations and ZeRO-3 parameter shards.
BYTES_PER_ELEMENT = 2

#: Megatron and ZeRO-1 reduce gradients in fp32.
_GRAD_BYTES = 4


def ring_factor(n):
    """Wire bytes per rank for a ring collective, as a fraction of data."""
    if n <= 1:
        return 0.0
    return 2.0 * (n - 1) / n


class CommVolumes:
    """Bytes each GPU moves per iteration, by parallel dimension."""

    __slots__ = ("tp", "dp", "pp", "ep")

    def __init__(self, tp=0.0, dp=0.0, pp=0.0, ep=0.0):
        self.tp = tp
        self.dp = dp
        self.pp = pp
        self.ep = ep

    def __repr__(self):
        return "CommVolumes(tp=%.2fGB, dp=%.2fGB, pp=%.2fGB, ep=%.2fGB)" % (
            self.tp / 1e9, self.dp / 1e9, self.pp / 1e9, self.ep / 1e9,
        )


def activation_bytes(model, strategy):
    """One micro-batch's activation tensor at a cut point, per TP rank."""
    return (
        strategy.micro_batch * model.seq_len * model.hidden * BYTES_PER_ELEMENT
    )


def comm_volumes(model, strategy, framework):
    """Per-GPU, per-iteration communication volumes for one job."""
    micro_batches = strategy.grad_accum
    act = activation_bytes(model, strategy)

    # -- tensor parallelism ----------------------------------------------
    tp_bytes = 0.0
    if strategy.tp > 1:
        layers_per_stage = model.layers / strategy.pp
        per_layer = 4 * act * ring_factor(strategy.tp)
        tp_bytes = layers_per_stage * micro_batches * per_layer

    # -- data parallelism ---------------------------------------------------
    if framework is Framework.DEEPSPEED_ZERO3:
        # Parameter all-gather (fwd + bwd) plus gradient reduce-scatter:
        # three ring passes over the full parameter bytes.
        param_bytes = model.parameters * BYTES_PER_ELEMENT
        dp_bytes = 3.0 * ring_factor(strategy.dp) / 2.0 * param_bytes
    else:
        shard = model.parameters / (strategy.tp * strategy.pp)
        dp_bytes = ring_factor(strategy.dp) * shard * _GRAD_BYTES

    # -- pipeline parallelism --------------------------------------------
    pp_bytes = 0.0
    if strategy.pp > 1:
        # Activation forward + gradient backward per micro-batch.
        pp_bytes = 2.0 * micro_batches * act

    # -- expert parallelism -----------------------------------------------
    ep_bytes = 0.0
    if strategy.ep > 1:
        tokens = strategy.micro_batch * model.seq_len * micro_batches
        # Dispatch + combine, forward + backward: 4 all-to-all passes.
        ep_bytes = (
            4.0 * tokens * model.hidden * BYTES_PER_ELEMENT
            * (strategy.ep - 1) / strategy.ep
        )

    return CommVolumes(tp=tp_bytes, dp=dp_bytes, pp=pp_bytes, ep=ep_bytes)


def compute_flops(model, strategy):
    """Per-GPU FLOPs per iteration: the standard 6 * params * tokens."""
    tokens = strategy.global_batch * model.seq_len
    return 6.0 * model.parameters * tokens / strategy.gpus
