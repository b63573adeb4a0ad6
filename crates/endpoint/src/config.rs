//! Endpoint configuration (Listing 5).
//!
//! Endpoint agents are configured with a mini-YAML document choosing the
//! engine, its shape, and the provider. The same structures are produced by
//! the multi-user endpoint after rendering its admin template (Listing 9)
//! against a user config (Listing 10).

use gcx_core::error::{GcxError, GcxResult};
use gcx_core::value::Value;
use gcx_shell::mpi::LauncherKind;

/// Which provider provisions blocks.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ProviderSpec {
    /// On-host processes (no scheduler).
    Local,
    /// Slurm-like batch scheduler.
    Slurm {
        /// Partition name.
        partition: String,
        /// Charging account.
        account: String,
        /// Block walltime in ms.
        walltime_ms: u64,
    },
    /// PBSPro-like batch scheduler.
    Pbs {
        /// Queue name.
        partition: String,
        /// Charging account.
        account: String,
        /// Block walltime in ms.
        walltime_ms: u64,
    },
}

/// Which engine executes tasks.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum EngineSpec {
    /// The pilot-job engine (`GlobusComputeEngine`).
    GlobusCompute {
        /// Nodes per block.
        nodes_per_block: u32,
        /// Maximum concurrent blocks.
        max_blocks: u32,
        /// Workers per node.
        workers_per_node: u32,
        /// Per-task sandboxing for ShellFunctions.
        sandbox: bool,
        /// Block provider.
        provider: ProviderSpec,
    },
    /// The MPI engine (`GlobusMPIEngine`, §III-C.1).
    GlobusMpi {
        /// Nodes in the shared block.
        nodes_per_block: u32,
        /// MPI launcher.
        mpi_launcher: LauncherKind,
        /// Block provider.
        provider: ProviderSpec,
    },
    /// The in-process engine (`ThreadEngine`): local worker threads, no
    /// provider — the non-batch deployment mode.
    Thread {
        /// Worker threads.
        workers: u32,
    },
}

/// A parsed endpoint configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointConfig {
    /// Display name for registration/search.
    pub(crate) display_name: String,
    /// Engine selection and shape.
    pub(crate) engine: EngineSpec,
}

impl EndpointConfig {
    /// Parse from mini-YAML text (Listing 5 shape).
    pub fn from_yaml(text: &str) -> GcxResult<Self> {
        Self::from_value(&gcx_config::parse_yaml(text)?)
    }

    /// Parse from an already-parsed document.
    pub(crate) fn from_value(doc: &Value) -> GcxResult<Self> {
        let display_name = doc
            .get("display_name")
            .and_then(Value::as_str)
            .unwrap_or("endpoint")
            .to_string();
        let engine_doc = doc
            .get("engine")
            .ok_or_else(|| GcxError::InvalidConfig("missing 'engine' section".into()))?;
        let engine_type = engine_doc
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| GcxError::InvalidConfig("engine needs a 'type'".into()))?;

        // The provider may be nested under engine (Listing 5) or top-level
        // (Listing 9); accept both.
        let provider_doc = engine_doc.get("provider").or_else(|| doc.get("provider"));
        let provider = parse_provider(provider_doc)?;

        let get_u32 = |key: &str, default: u32| -> GcxResult<u32> {
            match engine_doc.get(key).or_else(|| doc.get(key)) {
                None => Ok(default),
                Some(Value::Int(i)) if *i >= 1 && *i <= u32::MAX as i64 => Ok(*i as u32),
                // MEP templates render numbers into strings; accept numeric text.
                Some(Value::Str(s)) => {
                    s.trim()
                        .parse::<u32>()
                        .ok()
                        .filter(|v| *v >= 1)
                        .ok_or_else(|| {
                            GcxError::InvalidConfig(format!("'{key}' must be a positive integer"))
                        })
                }
                Some(_) => Err(GcxError::InvalidConfig(format!(
                    "'{key}' must be a positive integer"
                ))),
            }
        };

        let engine = match engine_type {
            "GlobusComputeEngine" => EngineSpec::GlobusCompute {
                nodes_per_block: get_u32("nodes_per_block", 1)?,
                max_blocks: get_u32("max_blocks", 1)?,
                workers_per_node: get_u32("workers_per_node", 1)?,
                sandbox: matches!(
                    engine_doc.get("sandbox").or_else(|| doc.get("sandbox")),
                    Some(Value::Bool(true))
                ),
                provider,
            },
            "GlobusMPIEngine" => {
                let launcher = engine_doc
                    .get("mpi_launcher")
                    .and_then(Value::as_str)
                    .unwrap_or("mpiexec");
                EngineSpec::GlobusMpi {
                    nodes_per_block: get_u32("nodes_per_block", 4)?,
                    mpi_launcher: LauncherKind::parse(launcher)?,
                    provider,
                }
            }
            "ThreadEngine" => EngineSpec::Thread {
                workers: get_u32("workers", 4)?,
            },
            other => {
                return Err(GcxError::InvalidConfig(format!(
                    "unknown engine type '{other}'"
                )))
            }
        };
        Ok(Self {
            display_name,
            engine,
        })
    }
}

fn parse_provider(doc: Option<&Value>) -> GcxResult<ProviderSpec> {
    let Some(doc) = doc else {
        return Ok(ProviderSpec::Local);
    };
    let ty = doc
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| GcxError::InvalidConfig("provider needs a 'type'".into()))?;
    let partition = doc
        .get("partition")
        .and_then(Value::as_str)
        .unwrap_or("cpu")
        .to_string();
    let account = doc
        .get("account")
        .and_then(Value::as_str)
        .map(str::to_string)
        .or_else(|| {
            doc.get("account")
                .and_then(Value::as_int)
                .map(|i| i.to_string())
        })
        .unwrap_or_else(|| "default".to_string());
    let walltime_ms = match doc.get("walltime") {
        None => 30 * 60 * 1000, // Listing 9's default("00:30:00")
        Some(Value::Str(s)) => parse_walltime(s)?,
        Some(Value::Int(mins)) if *mins > 0 => (*mins as u64) * 60 * 1000,
        Some(_) => return Err(GcxError::InvalidConfig("bad 'walltime'".into())),
    };
    match ty {
        "LocalProvider" => Ok(ProviderSpec::Local),
        "SlurmProvider" => Ok(ProviderSpec::Slurm {
            partition,
            account,
            walltime_ms,
        }),
        "PBSProProvider" | "PBSProvider" => Ok(ProviderSpec::Pbs {
            partition,
            account,
            walltime_ms,
        }),
        other => Err(GcxError::InvalidConfig(format!(
            "unknown provider type '{other}'"
        ))),
    }
}

/// Parse `HH:MM:SS` walltime notation into milliseconds.
pub(crate) fn parse_walltime(s: &str) -> GcxResult<u64> {
    let parts: Vec<&str> = s.split(':').collect();
    let nums: Option<Vec<u64>> = parts.iter().map(|p| p.parse::<u64>().ok()).collect();
    match nums.as_deref() {
        Some([h, m, sec]) if *m < 60 && *sec < 60 => Ok((h * 3600 + m * 60 + sec) * 1000),
        Some([m, sec]) if *sec < 60 => Ok((m * 60 + sec) * 1000),
        _ => Err(GcxError::InvalidConfig(format!(
            "bad walltime '{s}' (want HH:MM:SS)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing5_parses() {
        let text = r#"
display_name: SlurmHPC
engine:
    type: GlobusMPIEngine
    mpi_launcher: srun

    provider:
        type: SlurmProvider

    nodes_per_block: 4
"#;
        let cfg = EndpointConfig::from_yaml(text).unwrap();
        assert_eq!(cfg.display_name, "SlurmHPC");
        let EngineSpec::GlobusMpi {
            nodes_per_block,
            mpi_launcher,
            provider,
        } = cfg.engine
        else {
            panic!()
        };
        assert_eq!(nodes_per_block, 4);
        assert_eq!(mpi_launcher, LauncherKind::Srun);
        assert!(matches!(provider, ProviderSpec::Slurm { .. }));
    }

    #[test]
    fn listing9_rendered_template_parses() {
        // What the MEP produces after rendering Listing 9 with Listing 10.
        let text = r#"
engine:
  type: GlobusComputeEngine
  nodes_per_block: 64

provider:
  type: SlurmProvider
  partition: cpu
  account: "314159265"
  walltime: "00:20:00"

launcher:
  type: SrunLauncher
"#;
        let cfg = EndpointConfig::from_yaml(text).unwrap();
        let EngineSpec::GlobusCompute {
            nodes_per_block,
            provider,
            ..
        } = cfg.engine
        else {
            panic!()
        };
        assert_eq!(nodes_per_block, 64);
        let ProviderSpec::Slurm {
            partition,
            account,
            walltime_ms,
        } = provider
        else {
            panic!()
        };
        assert_eq!(partition, "cpu");
        assert_eq!(account, "314159265");
        assert_eq!(walltime_ms, 20 * 60 * 1000);
    }

    #[test]
    fn defaults() {
        let cfg = EndpointConfig::from_yaml("engine:\n  type: GlobusComputeEngine\n").unwrap();
        let EngineSpec::GlobusCompute {
            nodes_per_block,
            max_blocks,
            workers_per_node,
            sandbox,
            provider,
        } = cfg.engine
        else {
            panic!()
        };
        assert_eq!((nodes_per_block, max_blocks, workers_per_node), (1, 1, 1));
        assert!(!sandbox);
        assert_eq!(provider, ProviderSpec::Local);
        assert_eq!(cfg.display_name, "endpoint");
    }

    #[test]
    fn numeric_strings_accepted_for_counts() {
        // Template rendering yields strings; they must still parse.
        let text = "engine:\n  type: GlobusComputeEngine\n  nodes_per_block: \"8\"\n";
        let cfg = EndpointConfig::from_yaml(text).unwrap();
        let EngineSpec::GlobusCompute {
            nodes_per_block, ..
        } = cfg.engine
        else {
            panic!()
        };
        assert_eq!(nodes_per_block, 8);
    }

    #[test]
    fn sandbox_flag() {
        let text = "engine:\n  type: GlobusComputeEngine\n  sandbox: true\n";
        let cfg = EndpointConfig::from_yaml(text).unwrap();
        assert!(matches!(
            cfg.engine,
            EngineSpec::GlobusCompute { sandbox: true, .. }
        ));
    }

    #[test]
    fn thread_engine_parses_with_and_without_workers() {
        let cfg = EndpointConfig::from_yaml("engine:\n  type: ThreadEngine\n").unwrap();
        assert_eq!(cfg.engine, EngineSpec::Thread { workers: 4 });
        let cfg =
            EndpointConfig::from_yaml("engine:\n  type: ThreadEngine\n  workers: 8\n").unwrap();
        assert_eq!(cfg.engine, EngineSpec::Thread { workers: 8 });
        assert!(
            EndpointConfig::from_yaml("engine:\n  type: ThreadEngine\n  workers: 0\n").is_err()
        );
    }

    #[test]
    fn errors() {
        assert!(
            EndpointConfig::from_yaml("display_name: x\n").is_err(),
            "no engine"
        );
        assert!(EndpointConfig::from_yaml("engine:\n  type: WarpEngine\n").is_err());
        assert!(EndpointConfig::from_yaml(
            "engine:\n  type: GlobusComputeEngine\n  nodes_per_block: 0\n"
        )
        .is_err());
        assert!(EndpointConfig::from_yaml(
            "engine:\n  type: GlobusComputeEngine\n  provider:\n    type: CloudProvider\n"
        )
        .is_err());
        assert!(EndpointConfig::from_yaml(
            "engine:\n  type: GlobusMPIEngine\n  mpi_launcher: qsub\n"
        )
        .is_err());
    }

    #[test]
    fn walltime_notation() {
        assert_eq!(parse_walltime("00:30:00").unwrap(), 1_800_000);
        assert_eq!(parse_walltime("01:00:00").unwrap(), 3_600_000);
        assert_eq!(parse_walltime("10:30").unwrap(), 630_000);
        assert!(parse_walltime("90").is_err());
        assert!(parse_walltime("00:99:00").is_err());
        assert!(parse_walltime("a:b:c").is_err());
    }
}
