"""Seeded synthetic corpus shaped like NSL-KDD (41 features, 5 classes).

The real KDDTrain+/KDDTest+ files cannot be fetched offline, so the
benchmark writes a stand-in with the same column names, the same three
categorical columns and the published class shares. Class profiles come
from a fixed constant, so every seed samples the same population; the seed
only picks the rows. Equal seeds give byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# (column, family); the family picks the sampler in _numeric_column.
FEATURES = [
    ("duration", "heavy"), ("protocol_type", "categorical"),
    ("service", "categorical"), ("flag", "categorical"),
    ("src_bytes", "heavy"), ("dst_bytes", "heavy"), ("land", "binary"),
    ("wrong_fragment", "small"), ("urgent", "small"), ("hot", "small"),
    ("num_failed_logins", "small"), ("logged_in", "binary"),
    ("num_compromised", "small"), ("root_shell", "binary"),
    ("su_attempted", "binary"), ("num_root", "small"),
    ("num_file_creations", "small"), ("num_shells", "small"),
    ("num_access_files", "small"), ("num_outbound_cmds", "const"),
    ("is_host_login", "binary"), ("is_guest_login", "binary"),
    ("count", "count511"), ("srv_count", "count511"),
    ("serror_rate", "rate"), ("srv_serror_rate", "rate"),
    ("rerror_rate", "rate"), ("srv_rerror_rate", "rate"),
    ("same_srv_rate", "rate"), ("diff_srv_rate", "rate"),
    ("srv_diff_host_rate", "rate"), ("dst_host_count", "count255"),
    ("dst_host_srv_count", "count255"), ("dst_host_same_srv_rate", "rate"),
    ("dst_host_diff_srv_rate", "rate"), ("dst_host_same_src_port_rate", "rate"),
    ("dst_host_srv_diff_host_rate", "rate"), ("dst_host_serror_rate", "rate"),
    ("dst_host_srv_serror_rate", "rate"), ("dst_host_rerror_rate", "rate"),
    ("dst_host_srv_rerror_rate", "rate"),
]
LABEL_COLUMN = "class"
# Same codes as the packaged nsl_kdd schema.
LABEL_ENCODING = {"normal": 0, "r2l": 1, "u2r": 2, "probe": 3, "dos": 4}
CLASSES = list(LABEL_ENCODING)

# Rows per class in KDDTrain+ and KDDTest+ (Tavallaee et al., CISDA 2009).
TRAIN_COUNTS = {"normal": 67343, "dos": 45927, "probe": 11656, "r2l": 995, "u2r": 52}
TEST_COUNTS = {"normal": 9711, "dos": 7458, "probe": 2421, "r2l": 2754, "u2r": 200}

CATEGORIES = {
    "protocol_type": ["tcp", "udp", "icmp"],
    "flag": ["SF", "S0", "REJ", "RSTR", "RSTO", "SH", "S1", "S2", "RSTOS0", "S3", "OTH"],
    "service": [
        "http", "private", "domain_u", "smtp", "ftp_data", "eco_i", "other",
        "ecr_i", "telnet", "finger", "ftp", "auth", "Z39_50", "uucp", "courier",
        "bgp", "whois", "uucp_path", "iso_tsap", "time", "imap4", "nnsp",
        "vmnet", "urp_i", "domain", "ctf", "csnet_ns", "supdup", "discard",
        "http_443", "daytime", "gopher", "efs", "systat", "link", "exec",
        "hostnames", "name", "mtp", "echo", "klogin", "login", "ldap",
        "netbios_dgm", "sunrpc", "netbios_ssn", "netstat", "netbios_ns",
        "ssh", "kshell", "nntp", "pop_3", "sql_net", "IRC", "ntp_u", "rje",
        "remote_job", "pop_2", "X11", "printer", "shell", "urh_i", "tim_i",
        "red_i", "pm_dump", "tftp_u", "http_8001", "aol", "harvest", "http_2784",
    ],
}

# Fixed seed of the class profiles; changing it changes every workload.
_PROFILE_SEED = 2306_06366
# Share of rows that draw their features from another class's profile,
# which keeps the task from being trivially separable.
_CONFUSION = 0.05
_CHUNK_ROWS = 8192
_RATE_TEXT = np.array([repr(round(k / 100, 2)) for k in range(101)])


def scaled_counts(counts: dict[str, int], n_rows: int) -> dict[str, int]:
    """Per-class row counts for n_rows at the shares of counts.

    Largest remainder rounding, then every class is raised to at least 5
    rows so that a 0.8/0.2 stratified split puts each class in both parts.
    """
    total = sum(counts.values())
    exact = {c: counts[c] * n_rows / total for c in CLASSES}
    out = {c: int(exact[c]) for c in CLASSES}
    by_remainder = sorted(CLASSES, key=lambda c: (out[c] - exact[c], CLASSES.index(c)))
    for c in by_remainder[: n_rows - sum(out.values())]:
        out[c] += 1
    return {c: max(5, n) for c, n in out.items()}


def _profiles() -> dict:
    """Class-conditional parameters per feature, identical for every seed."""
    rng = np.random.default_rng(_PROFILE_SEED)
    k = len(CLASSES)
    prof = {}
    for name, family in FEATURES:
        if family == "categorical":
            n_cat = len(CATEGORIES[name])
            base = -0.15 * np.arange(n_cat)
            prof[name] = base[None, :] + 1.5 * rng.standard_normal((k, n_cat))
        elif family == "const":
            prof[name] = None
        else:
            strength = rng.exponential(1.5)
            prof[name] = rng.normal(0.0, 1.0) + strength * rng.standard_normal(k)
    return prof


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _numeric_column(family: str, loc: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = len(loc)
    if family == "const":
        return np.zeros(n, dtype=np.int64)
    if family == "binary":
        return (rng.random(n) < _sigmoid(loc - 1.0)).astype(np.int64)
    if family == "small":
        return rng.poisson(np.exp(loc - 1.5))
    if family in ("count511", "count255"):
        top = 511 if family == "count511" else 255
        value = np.exp(3.0 + loc + 0.8 * rng.standard_normal(n))
        return np.clip(np.rint(value), 0, top).astype(np.int64)
    if family == "rate":
        value = _sigmoid(loc + rng.standard_normal(n))
        return np.rint(value * 100).astype(np.int64)  # hundredths, written as k/100
    if family == "heavy":
        # zero-inflated log-normal with a long tail, like byte counts
        active = rng.random(n) < _sigmoid(loc + 0.5)
        value = np.floor(np.exp(4.0 + 1.5 * loc + 2.0 * rng.standard_normal(n)))
        return np.where(active, value, 0).astype(np.int64)
    raise ValueError(f"unknown family {family}")


def _sample(counts: dict[str, int], rng: np.random.Generator) -> list[np.ndarray]:
    """One array per column (features then label), rows shuffled.

    Integer arrays are written as they are; string arrays hold category
    text. Rates are kept as hundredths and written as k/100.
    """
    prof = _profiles()
    labels = np.concatenate([np.full(counts[c], i) for i, c in enumerate(CLASSES)])
    labels = labels[rng.permutation(len(labels))]
    source = np.where(rng.random(len(labels)) < _CONFUSION,
                      rng.integers(0, len(CLASSES), len(labels)), labels)
    columns = []
    for name, family in FEATURES:
        if family == "categorical":
            logits = prof[name][source]
            gumbel = -np.log(-np.log(rng.random(logits.shape)))
            choice = np.argmax(logits + gumbel, axis=1)
            columns.append(np.asarray(CATEGORIES[name])[choice])
        elif family == "rate":
            columns.append(_RATE_TEXT[_numeric_column(family, prof[name][source], rng)])
        else:
            loc = np.zeros(len(source)) if prof[name] is None else prof[name][source]
            columns.append(_numeric_column(family, loc, rng))
    columns.append(np.asarray(CLASSES)[labels])
    return columns


def write_csv(path: Path, counts: dict[str, int], seed) -> int:
    """Write one labeled file with the given class counts; return its rows.

    ``seed`` is anything ``np.random.default_rng`` accepts.
    """
    columns = _sample(counts, np.random.default_rng(seed))
    n_rows = len(columns[0])
    header = [name for name, _ in FEATURES] + [LABEL_COLUMN]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            chunk = [col[start:start + _CHUNK_ROWS].astype(str).tolist() for col in columns]
            fh.write("".join(",".join(row) + "\n" for row in zip(*chunk)))
    return n_rows


def schema_doc(name: str = "nsl_kdd41") -> dict:
    """The 41-feature schema; the packaged nsl_kdd.yaml is a 20-column view."""
    return {
        "name": name,
        "columns": [n for n, _ in FEATURES] + [LABEL_COLUMN],
        "kinds": [
            "categorical" if family == "categorical" else "numeric"
            for _, family in FEATURES
        ] + ["categorical"],
        "label_column": LABEL_COLUMN,
        "label_encoding": dict(LABEL_ENCODING),
    }
