"""LLM model configurations and the Table 1 job rows.

Table 1 of the paper lists four production training jobs with their
parallel strategies ("TP, PP, DP, Micro-batch Size, Gradient Accumulation,
Global-batch Size") and the measured share of iteration time each
communication dimension consumed.  We encode the rows verbatim so the
cost model can be compared against them.
"""

import enum

#: Training sequence length (tokens) shared by every model.
_SEQ_LEN = 2048


class Framework(enum.Enum):
    MEGATRON = "Megatron"
    DEEPSPEED_ZERO1 = "DeepSpeed-Zero1"
    DEEPSPEED_ZERO3 = "DeepSpeed-Zero3"


class LlmModel:
    """Architecture parameters of one dense transformer."""

    def __init__(self, name, parameters, layers, hidden):
        self.name = name
        self.parameters = parameters
        self.layers = layers
        self.hidden = hidden
        self.seq_len = _SEQ_LEN

    def __repr__(self):
        return "LlmModel(%r, %.1fB params)" % (self.name, self.parameters / 1e9)


#: Architectures referenced by Table 1 (shapes follow the public configs;
#: GPT-200B uses a deep/wide shape consistent with its parameter count).
LLAMA_2B = LlmModel("Llama-2B", 2.0e9, layers=24, hidden=2560)
LLAMA_13B = LlmModel("Llama-13B", 13.0e9, layers=40, hidden=5120)
LLAMA_33B = LlmModel("Llama-33B", 32.5e9, layers=60, hidden=6656)
GPT_200B = LlmModel("GPT-200B", 200.0e9, layers=96, hidden=12288)

MODELS = {m.name: m for m in (LLAMA_2B, LLAMA_13B, LLAMA_33B, GPT_200B)}


class ParallelStrategy:
    """One job's TP/PP/DP/EP decomposition and batch schedule."""

    def __init__(self, tp, pp, dp, ep=1, micro_batch=1, grad_accum=1,
                 global_batch=None):
        for name, value in (("tp", tp), ("pp", pp), ("dp", dp), ("ep", ep)):
            if value < 1:
                raise ValueError("%s must be >= 1, got %r" % (name, value))
        self.tp = tp
        self.pp = pp
        self.dp = dp
        self.ep = ep
        self.micro_batch = micro_batch
        self.grad_accum = grad_accum
        self.global_batch = (
            global_batch if global_batch is not None
            else micro_batch * grad_accum * dp
        )

    @property
    def gpus(self):
        return self.tp * self.pp * self.dp

    def label(self):
        """The x-axis label style of Figure 16: TP, PP, DP, EP."""
        return "%d,%d,%d,%d" % (self.tp, self.pp, self.dp, self.ep)

    def __repr__(self):
        return (
            "ParallelStrategy(tp=%d, pp=%d, dp=%d, ep=%d, mb=%d, ga=%d, gb=%d)"
            % (self.tp, self.pp, self.dp, self.ep, self.micro_batch,
               self.grad_accum, self.global_batch)
        )


class Table1Row:
    """One row of Table 1: job + the paper's measured comm ratios."""

    def __init__(self, framework, model, strategy, tp_ratio, dp_ratio, pp_ratio):
        self.framework = framework
        self.model = model
        self.strategy = strategy
        #: Paper-measured shares of iteration time (None == N/A).
        self.tp_ratio = tp_ratio
        self.dp_ratio = dp_ratio
        self.pp_ratio = pp_ratio

    @property
    def total_ratio(self):
        return sum(r for r in (self.tp_ratio, self.dp_ratio, self.pp_ratio)
                   if r is not None)

    def __repr__(self):
        return "Table1Row(%s, %s, %s)" % (
            self.framework.value,
            self.model.name,
            self.strategy.label(),
        )


#: Table 1, verbatim.  Parameters column: TP, PP, DP, MB, GA, GB.
TABLE1_ROWS = (
    Table1Row(
        Framework.MEGATRON, LLAMA_33B,
        ParallelStrategy(tp=2, pp=3, dp=148, micro_batch=1, grad_accum=58,
                         global_batch=8584),
        tp_ratio=0.0457, dp_ratio=0.2095, pp_ratio=0.0265,
    ),
    Table1Row(
        Framework.MEGATRON, GPT_200B,
        ParallelStrategy(tp=4, pp=12, dp=34, micro_batch=1, grad_accum=117,
                         global_batch=3978),
        tp_ratio=0.1088, dp_ratio=0.0149, pp_ratio=0.2014,
    ),
    Table1Row(
        Framework.DEEPSPEED_ZERO1, LLAMA_2B,
        ParallelStrategy(tp=1, pp=1, dp=16, micro_batch=1, grad_accum=2,
                         global_batch=32),
        tp_ratio=None, dp_ratio=0.173, pp_ratio=None,
    ),
    Table1Row(
        Framework.DEEPSPEED_ZERO3, LLAMA_13B,
        ParallelStrategy(tp=1, pp=1, dp=440, micro_batch=1, grad_accum=1,
                         global_batch=440),
        tp_ratio=None, dp_ratio=0.105, pp_ratio=None,
    ),
)
