"""The whole-text route of ``Model.parse``, kept as an oracle.

Before ``FactoredFunction.parse`` read a text's top-level product factor
by factor, each backend multiplied the whole expression out with
``rat_parse`` and factored the numerator and the denominator.  That is
the reference here: on the line ``Model.parse`` must give the same
constant and factors, or the same ValueError text; on the curve, where a
product of pair atoms multiplied out factors into other atoms, the same
function (divisor and residue characters) or the same ValueError text.
"""

from wildsets.base_algebra import _quoted, rat_parse
from wildsets.elliptic_curve import EllipticModel, _reduce_y


def parse_whole(model, s):
    """The function text s denotes, read through one fraction."""
    cls = model._function
    if isinstance(model, EllipticModel):
        num, den = rat_parse(s, model.field, allow_y=True)
        num = _reduce_y(num, model)
        den = _reduce_y(den, model)
        if not den:
            raise ValueError("denominator vanishes on the curve: %s" % _quoted(s))
        if not num:
            raise ValueError("the zero element has no factored form: %s" % _quoted(s))
        top = cls.from_pair(model, num.get(0, ()), num.get(1, ()))
        bot = cls.from_pair(model, den.get(0, ()), den.get(1, ()))
        return top / bot
    num, den = rat_parse(s, model.field)
    n = num.get(0, ())
    if not n:
        raise ValueError("the zero element has no factored form: %s" % _quoted(s))
    return cls.from_poly(model, n) / cls.from_poly(model, den.get(0, ()))
