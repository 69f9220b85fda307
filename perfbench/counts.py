"""Operation counts computed from ``ForwardOutput.trace`` shapes and a config.

These are computed, not measured: they count the multiply-adds (as two
FLOPs) and the bytes that the model's matrix products read and write once,
given the stage shapes a ``forward`` call recorded.  Softmax, layer norm,
ReLU and positional encoding are left out; they are linear in the row
count and small next to the products counted here.

Pure functions of plain numbers, so they can be tested without the model.
"""

from __future__ import annotations

F64 = 8  # bytes per value
ATTN_HEADS = 2  # fixed in xling.model
PREDICTOR_KERNEL = 3  # fixed in xling.model
N_PREDICTORS = 3  # duration, pitch, energy


def parameter_count(cfg) -> int:
    """Values drawn by ``init_weights`` for this config (= PRNG draws)."""
    H, ff, k = cfg.hidden, cfg.ff_channels, cfg.conv_kernel
    block = 4 * H * H + 4 * H + 4 * H + 2 * ff * H * k + ff + H
    predictor = 2 * (H * H * PREDICTOR_KERNEL + H) + 4 * H + H + 1
    return (
        cfg.n_ipa_symbols * H
        + cfg.n_speakers * H
        + (cfg.enc_layers + cfg.dec_layers) * block
        + N_PREDICTORS * predictor
        + H * cfg.pitch_embed_kernel + H
        + cfg.n_mels * H + cfg.n_mels
    )


def _matmul(m: int, k: int, n: int) -> tuple[int, int]:
    """(FLOPs, bytes) of an (m x k) @ (k x n) product, operands read once."""
    return 2 * m * k * n, F64 * (m * k + k * n + m * n)


def _conv(rows: int, c_in: int, c_out: int, kernel: int) -> tuple[int, int]:
    # im2col: the (rows, c_in * kernel) window matrix is written, then multiplied
    flops, moved = _matmul(rows, c_in * kernel, c_out)
    return flops, moved + F64 * rows * c_in * kernel


def _attention(rows: int, hidden: int) -> tuple[int, int]:
    flops = moved = 0
    for _ in range(4):  # q, k, v and output projections
        f, b = _matmul(rows, hidden, hidden)
        flops, moved = flops + f, moved + b
    head = hidden // ATTN_HEADS
    for _ in range(2):  # scores = q k^T, then weights @ v, per head
        f, b = _matmul(rows, head, rows)
        flops, moved = flops + ATTN_HEADS * f, moved + ATTN_HEADS * b
    return flops, moved


def forward_counts(cfg, trace) -> dict:
    """Attention/conv/other FLOPs and bytes moved for one forward call."""
    shapes = dict(trace)
    enc_rows = shapes["encoder"][0]
    phonemes = shapes["aggregate"][0]
    frames = shapes["decoder"][0]
    H = cfg.hidden
    attn = conv = other = moved = 0

    for rows, layers in ((enc_rows, cfg.enc_layers), (frames, cfg.dec_layers)):
        if rows == 0:
            continue
        f, b = _attention(rows, H)
        attn, moved = attn + layers * f, moved + layers * b
        for c_in, c_out in ((H, cfg.ff_channels), (cfg.ff_channels, H)):
            f, b = _conv(rows, c_in, c_out, cfg.conv_kernel)
            conv, moved = conv + layers * f, moved + layers * b

    for _ in range(N_PREDICTORS):
        for _ in range(2):
            f, b = _conv(phonemes, H, H, PREDICTOR_KERNEL)
            conv, moved = conv + f, moved + b
        f, b = _matmul(phonemes, H, 1)
        other, moved = other + f, moved + b
    f, b = _conv(phonemes, 1, H, cfg.pitch_embed_kernel)
    conv, moved = conv + f, moved + b
    f, b = _matmul(frames, H, cfg.n_mels)
    other, moved = other + f, moved + b

    return {
        "model.encoder_rows": enc_rows,
        "model.decoder_frames": frames,
        "model.attn_flops": attn,
        "model.conv_flops": conv,
        "model.other_flops": other,
        "model.bytes_moved": moved,
    }
