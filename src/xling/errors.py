"""Exception hierarchy shared by all xling modules.

Every error carries a short machine-readable ``code`` so the CLI can emit
``ERROR <code>: <detail>`` lines without inspecting exception types.  An
error whose constructor takes more than its message defines ``__reduce__``,
so a library caller that pickles it (to send it between processes, say)
gets back the same type, code, fields and message.
"""


class XlingError(Exception):
    """Base class for all errors raised by this package."""

    code = "INTERNAL"


class OOVError(XlingError):
    """A surface form is absent from the pronunciation lexicon.

    ``language`` is None for a character that no lexicon covers, such as a
    digit.  Unpickling rebuilds the error from its fields.
    """

    code = "OOV"

    def __init__(self, surface, language, offset=None):
        self.surface = surface
        self.language = language
        self.offset = offset
        where = f" at offset {offset}" if offset is not None else ""
        lexicon = f"{language} lexicon" if language is not None else "lexicon"
        super().__init__(f"no {lexicon} entry for {surface!r}{where}")

    def __reduce__(self):
        return type(self), (self.surface, self.language, self.offset)


class UnmappedLDPError(XlingError):
    """A (label, language) pair has no IPA decomposition."""

    code = "UNMAPPED_LDP"

    def __init__(self, label, language, offset=None):
        self.label = label
        self.language = language
        self.offset = offset
        where = f" at offset {offset}" if offset is not None else ""
        super().__init__(f"no IPA mapping for {language} phoneme {label!r}{where}")

    def __reduce__(self):
        return type(self), (self.label, self.language, self.offset)


class LengthMismatchError(XlingError):
    """Row counts disagree with a length or duration sequence."""

    code = "LENGTH_MISMATCH"


class ConfigMismatchError(XlingError):
    """An input does not satisfy the configured expectations."""

    code = "CONFIG_MISMATCH"


class EmptyAudioError(XlingError):
    """An audio buffer holds no samples."""

    code = "EMPTY_AUDIO"


class BadConfigError(XlingError):
    """A configuration object violates its own invariants."""

    code = "BAD_CONFIG"


class TooLargeError(XlingError):
    """An input or config asks for more than a documented size cap allows."""

    code = "TOO_LARGE"


class ShapeMismatchError(XlingError):
    """Tensor shapes disagree where the dataflow requires agreement."""

    code = "SHAPE_MISMATCH"


class UnknownSpeakerError(XlingError):
    """A speaker id falls outside the configured speaker table."""

    code = "UNKNOWN_SPEAKER"


class ParseError(XlingError):
    """A structured text file is malformed."""

    code = "PARSE"

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{prefix}{message}")


class DurationMismatchError(XlingError):
    """Alignment frame totals disagree with the audio duration."""

    code = "DURATION_MISMATCH"


class MissingSpeakerError(XlingError):
    """A dataset spec names a speaker absent from every scan root."""

    code = "MISSING_SPEAKER"


class EmptyManifestError(XlingError):
    """An operation that needs manifest entries received none."""

    code = "EMPTY_MANIFEST"


class UtteranceError(XlingError):
    """One utterance of a batch failed; carries the code of the cause.

    The message names the utterance id and its WAV path; unpickling
    rebuilds the error from its fields.
    """

    def __init__(self, utt_id, path, code, detail):
        self.utt_id = utt_id
        self.path = path
        self.code = code
        self.detail = detail
        super().__init__(f"utterance {utt_id} ({path}): {detail}")

    def __reduce__(self):
        return type(self), (self.utt_id, self.path, self.code, self.detail)
