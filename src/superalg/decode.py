"""The JSON input format, read strictly.

Every from_json reads its document through these readers, so this module
alone decides what a valid document is:

- an object carries exactly its listed keys;
- an integer is a plain int in range, never a bool, float or string;
- index lists are 1-based and in range;
- a scalar is an int or a 'p/q' string;
- a term list names each key once.

A violation raises ValueError whose message starts with the offending field.
"""

from .scalars import IndexSet, MultiDegree, parse_scalar as scalar


def fields(data, name, *keys):
    """The values of keys, in order, from an object with exactly those keys."""
    if not isinstance(data, dict) or data.keys() != set(keys):
        listed = " and ".join(filter(None, (", ".join(keys[:-1]), keys[-1])))
        got = sorted(data) if isinstance(data, dict) else data
        raise ValueError("%s needs exactly the keys %s, got %.60r" % (name, listed, got))
    return [data[k] for k in keys]


def integer(v, name, lo=0, hi=None):
    """A plain int in lo..hi; no upper bound when hi is None."""
    if isinstance(v, bool) or not isinstance(v, int) or v < lo or hi is not None and v > hi:
        span = ">= %d" % lo if hi is None else "in %d..%d" % (lo, hi)
        raise ValueError("%s must be an integer %s, got %.40r" % (name, span, v))
    return v


def items(v, name, length=None):
    """A list, of the given length when one is given."""
    if not isinstance(v, list):
        raise ValueError("%s must be a list, got %.40r" % (name, v))
    if length is not None and len(v) != length:
        raise ValueError("%s must have %d entries, got %d" % (name, length, len(v)))
    return v


def indices(v, name, dim):
    """A list of indices in 1..dim; repeats and any order allowed."""
    return [integer(i, name + " entry", 1, dim) for i in items(v, name)]


def index_set(v, name, dim):
    """A strictly increasing list of indices in 1..dim."""
    if any(a >= b for a, b in zip(indices(v, name, dim), v[1:])):
        raise ValueError("%s must be strictly increasing, got %.40r" % (name, v))
    return IndexSet(v)


def exponents(v, name, length):
    """An exponent vector of the given length."""
    return MultiDegree([integer(e, name + " entry") for e in items(v, name, length)])


def terms(v, name, read, *keys):
    """{key: value} of a list of objects with exactly keys, read(*values)
    giving each term's (key, value); a key may come only once."""
    out = {}
    for item in items(v, name):
        key, value = read(*fields(item, name + " entry", *keys))
        if key in out:
            raise ValueError("%s has a duplicate term %.60r" % (name, key))
        out[key] = value
    return out
